#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--workload all] [--seed N] [--seconds S]
    python3 perfbench/run.py --test

The first form runs one workload and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The second runs every workload, untraced and traced, one after another.
--test builds and runs the benchmark's own tests.

The benchmark is compiled from source into .bench_build/ at the top of
the checkout (CMake, Release). Build output goes to stderr. The exit
code is 0 only when the build succeeded and every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SPEC = ROOT / "BENCHMARK.json"

# One invocation of the binary must end well inside the 180 s a run has.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def sh(cmd, timeout):
    """Run a build step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(target="perfbench"):
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", str(HERE), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release"] + generator, timeout=300)
    sh(["cmake", "--build", str(BUILD), "--target", target,
        "-j", str(BUILD_JOBS)], timeout=800)


def binary(*args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY), *map(str, args)],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"perfbench {' '.join(map(str, args))} timed out") from exc
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def load_spec():
    """BENCHMARK.json, checked against the tables the binary reports."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc
    rc, lines = binary("--list")
    if rc != 0 or not lines:
        raise BenchError("perfbench --list failed")
    tables = json.loads(lines[-1])
    problems = []
    if [w["name"] for w in spec["workloads"]] != tables["workloads"]:
        problems.append("workloads differ from the binary's")
    for key in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in spec[key]]
        if declared != tables[key]:
            problems.append(f"{key} differs from the binary's metric table")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must be in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must have the largest bound")
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    return spec


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload; returns its result object and output lines."""
    rc, lines = binary("--workload", workload, "--seed", seed,
                       "--seconds", seconds, "--trace", trace)
    if not lines:
        raise BenchError(f"{workload}: no output (exit {rc})")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{workload}: last line is not JSON") from exc
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"{workload}: result has keys {sorted(result)}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        raise BenchError(f"{workload}: metrics differ from BENCHMARK.json")
    if rc != 0 or not result["correct"] or result["failed"]:
        result["correct"] = False
    return result, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.test:
            build("perfbench_test")
            build()
            load_spec()
            sh([str(BUILD / "perfbench_test")], timeout=RUN_TIMEOUT_S)
            log("perfbench: BENCHMARK.json matches the binary; tests pass")
            return 0
        build()
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload != "all":
            if args.trace is None:
                raise BenchError("--trace is required with one workload")
            result, lines = run_workload(spec, args.workload, args.seed,
                                         args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            return 0 if result["correct"] else 3
        ok = True
        traces = (0, 1) if args.trace is None else (args.trace,)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in traces:
                result, lines = run_workload(spec, workload, args.seed,
                                             args.seconds, trace)
                print("\n".join(lines[:-1]), flush=True)
                ok = ok and result["correct"]
        print("perfbench: all checks passed" if ok
              else "perfbench: CHECKS FAILED", flush=True)
        return 0 if ok else 3
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
