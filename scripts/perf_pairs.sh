#!/usr/bin/env bash
# Host-time comparison against another revision by alternating pairs:
# a change that claims a benchmark gain must win nearly every pair,
# not just the medians.
#
#   scripts/perf_pairs.sh <rev> [workload...]
#
# Builds <rev> in a temporary git worktree under build-perf-<rev>
# (removed on exit). For each workload (default: every workload of
# BENCHMARK.json) it runs `perfbench/run.py --workload W --trace 0` in
# that worktree (the parent) and in the working tree (the change),
# PAIRS times each (default 10). Pair i runs the parent first when i
# is odd and the change first when i is even, so drift over time
# falls on both sides alike. perfbench builds each tree into
# its own .bench_build on first use.
#
# Then it prints, per end-to-end metric, each side's quartiles
# (q1/median/q3), the pairs the change won (ties count for neither
# side) and the ratio of the medians, change/parent.
# Each run lasts run_seconds of BENCHMARK.json, the length the
# benchmark fixes.
#
# Environment: PAIRS (default 10), SEED (default 42).
#
# Exits 0 when every run is correct and sim_ops_per_s is the same on
# both sides, 1 otherwise (a failed run, `correct` false, or a
# different sim_ops_per_s), 2 on a usage error.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: perf_pairs.sh <rev> [workload...]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
PAIRS=${PAIRS:-10}
SEED=${SEED:-42}
case "$PAIRS" in
  '' | *[!0-9]* | 0) echo "perf_pairs.sh: PAIRS must be a positive" \
                          "integer" >&2
                     exit 2 ;;
esac

known=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(sys.stdin)["workloads"]))' \
    < BENCHMARK.json)
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || read -r -a workloads <<< "$known"
for w in "${workloads[@]}"; do
    case " $known " in
      *" $w "*) ;;
      *) echo "perf_pairs.sh: unknown workload '$w' (known: $known)" >&2
         exit 2 ;;
    esac
done

# shellcheck source=scripts/worktree.sh
. scripts/worktree.sh
worktree_checkout perf_pairs.sh build-perf- "$rev"

# Runs perfbench once in tree $1 and appends its JSON result line to
# $3 (build output and progress go to $outdir/build.log).
# Arguments: the tree, the workload, the result file.
bench_once() {
    local tree=$1 workload=$2 results=$3 out
    out=$(python3 "$tree/perfbench/run.py" --workload "$workload" \
        --seed "$SEED" --trace 0 2>> "$outdir/build.log") || true
    if [ -z "$out" ]; then
        tail -n 20 "$outdir/build.log" >&2
        echo "perf_pairs.sh: perfbench produced no result in $tree" >&2
        exit 1
    fi
    printf '%s\n' "${out##*$'\n'}" >> "$results"
}

# Prints run_cpu_s of the last result in file $1.
last_run_cpu() {
    tail -n 1 "$1" | python3 -c 'import json, sys
print("%.4f" % json.load(sys.stdin)["metrics"]["run_cpu_s"]["value"])'
}

failed=0
for w in "${workloads[@]}"; do
    echo "== $w: seed $SEED, $PAIRS pairs"
    for ((i = 1; i <= PAIRS; i++)); do
        if ((i % 2)); then
            bench_once "$base/src" "$w" "$outdir/$w.parent"
            bench_once . "$w" "$outdir/$w.change"
        else
            bench_once . "$w" "$outdir/$w.change"
            bench_once "$base/src" "$w" "$outdir/$w.parent"
        fi
        echo "pair $i: run_cpu_s parent $(last_run_cpu "$outdir/$w.parent")" \
            "change $(last_run_cpu "$outdir/$w.change")"
    done
    python3 - "$outdir/$w.parent" "$outdir/$w.change" BENCHMARK.json \
        <<'EOF' || failed=1
import json
import statistics
import sys

parent_file, change_file, spec_file = sys.argv[1:4]
sides = [[json.loads(line) for line in open(f)]
         for f in (parent_file, change_file)]
metrics = json.load(open(spec_file))["end_to_end"]
ok = True
for name, runs in zip(("parent", "change"), sides):
    bad = sum(1 for r in runs if not r["correct"])
    if bad:
        print(f"FAIL {name}: {bad} of {len(runs)} runs not correct")
        ok = False


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


print(f"{'metric':<15} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}"
      f" {'won':>6} {'chg/par':>8}")
for m in metrics:
    name = m["name"]
    old = [r["metrics"][name]["value"] for r in sides[0]]
    new = [r["metrics"][name]["value"] for r in sides[1]]
    sign = -1 if m["better"] == "lower" else 1
    won = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
    qo, qn = quartiles(old), quartiles(new)
    ratio = qn[1] / qo[1] if qo[1] else float("nan")
    print(f"{name:<15} {'/'.join(f'{v:.4g}' for v in qo):>30}"
          f" {'/'.join(f'{v:.4g}' for v in qn):>30}"
          f" {won:>3}/{len(old):<2} {ratio:>8.3f}")
    if name == "sim_ops_per_s" and len(set(old + new)) != 1:
        print(f"FAIL sim_ops_per_s differs: parent {sorted(set(old))},"
              f" change {sorted(set(new))}")
        ok = False
sys.exit(0 if ok else 1)
EOF
done

if [ "$failed" != 0 ]; then
    echo "perf_pairs.sh: failed runs or different simulated work" \
        "against $rev" >&2
    exit 1
fi
echo "perf_pairs.sh: every run correct; sim_ops_per_s matches $rev"
