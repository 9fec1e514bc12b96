#!/usr/bin/env python3
"""Aggregate and regression-gate kloc-bench-v1 artifacts.

Every bench binary writes a BENCH_<name>.json artifact (schema
"kloc-bench-v1", see bench/report.hh). This tool glues them into the
run-level BENCH_results.json and compares deterministic metrics
against the checked-in baseline:

  bench_json.py aggregate --outdir DIR --output FILE
  bench_json.py compare --results FILE --baseline FILE

Only metrics with "gate": true participate in the compare. Those are
derived from virtual (simulated) time, so they are bit-identical
across machines for the same code and run size; wall-clock metrics
are carried along for human before/after reading but never gate.
The compare is two-sided: a gated metric that moves more than
TOLERANCE either way is a behaviour change that needs a baseline
refresh, whichever way "better" points.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "kloc-bench-v1"
RESULTS_SCHEMA = "kloc-bench-results-v1"
TOLERANCE = 0.10


def fail(message):
    print(f"bench_json: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {path}: {err}")


def aggregate(options):
    outdir = Path(options.outdir)
    artifacts = sorted(
        p for p in outdir.glob("BENCH_*.json")
        if p.name != "BENCH_results.json"
    )
    if not artifacts:
        fail(f"no BENCH_*.json artifacts in {outdir}")
    benches = []
    for path in artifacts:
        data = load_json(path)
        if data.get("schema") != SCHEMA:
            fail(f"{path}: unexpected schema {data.get('schema')!r}")
        benches.append(data)
    results = {
        "schema": RESULTS_SCHEMA,
        "benches": benches,
    }
    with open(options.output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    gated = sum(
        1 for bench in benches for metric in bench["metrics"]
        if metric.get("gate")
    )
    total = sum(len(bench["metrics"]) for bench in benches)
    print(
        f"bench_json: aggregated {len(benches)} benches, "
        f"{total} metrics ({gated} gated) -> {options.output}"
    )


def gated_metrics(results):
    table = {}
    for bench in results.get("benches", []):
        for metric in bench.get("metrics", []):
            if metric.get("gate"):
                table[(bench["bench"], metric["name"])] = metric
    return table


def compare(options):
    results = load_json(options.results)
    baseline = load_json(options.baseline)
    for name, data in (("results", results), ("baseline", baseline)):
        if data.get("schema") != RESULTS_SCHEMA:
            fail(f"{name}: unexpected schema {data.get('schema')!r}")

    current = gated_metrics(results)
    expected = gated_metrics(baseline)
    moved = []
    missing = []
    for key, base in expected.items():
        metric = current.get(key)
        if metric is None:
            missing.append(key)
            continue
        base_value = float(base["value"])
        new_value = float(metric["value"])
        if base_value == 0.0:
            delta = 0.0 if new_value == 0.0 else float("inf")
        else:
            delta = (new_value - base_value) / abs(base_value)
        if abs(delta) > TOLERANCE:
            moved.append((key, base_value, new_value, delta))

    added = sorted(set(current) - set(expected))
    if added:
        print(
            f"bench_json: {len(added)} new gated metrics not in the "
            "baseline (run scripts/bench.sh --update-baseline to "
            "record them):"
        )
        for bench, name in added:
            print(f"  + {bench}:{name}")

    ok = True
    if missing:
        ok = False
        print("bench_json: baseline metrics missing from this run:")
        for bench, name in sorted(missing):
            print(f"  - {bench}:{name}")
    if moved:
        ok = False
        print(
            f"bench_json: gated metrics moved beyond {TOLERANCE:.0%} "
            "(refresh the baseline if the change is intended):"
        )
        for (bench, name), base_value, new_value, delta in sorted(
            moved, key=lambda row: -abs(row[3])
        ):
            print(
                f"  ! {bench}:{name}: {base_value:g} -> {new_value:g} "
                f"({delta:+.1%})"
            )
    if not ok:
        sys.exit(1)
    print(
        f"bench_json: {len(expected)} gated metrics within "
        f"{TOLERANCE:.0%} of baseline"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    agg = commands.add_parser(
        "aggregate", help="merge BENCH_*.json into BENCH_results.json"
    )
    agg.add_argument("--outdir", required=True)
    agg.add_argument("--output", required=True)
    agg.set_defaults(func=aggregate)

    cmp_cmd = commands.add_parser(
        "compare", help="gate deterministic metrics against a baseline"
    )
    cmp_cmd.add_argument("--results", required=True)
    cmp_cmd.add_argument("--baseline", required=True)
    cmp_cmd.set_defaults(func=compare)

    options = parser.parse_args()
    options.func(options)


if __name__ == "__main__":
    main()
