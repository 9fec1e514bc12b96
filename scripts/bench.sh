#!/usr/bin/env bash
# Benchmark pipeline: Release build, run every bench binary, collect
# the per-binary BENCH_<name>.json artifacts (schema kloc-bench-v1,
# bench/report.hh) into BENCH_results.json, and optionally gate the
# deterministic metrics against the checked-in baseline.
#
#   --quick            quarter-size smoke runs (KLOC_BENCH_QUICK=1,
#                      short google-benchmark iterations)
#   --compare          fail if any gate:true metric regresses more
#                      than the tolerance vs bench/BENCH_baseline.json
#   --update-baseline  rewrite bench/BENCH_baseline.json from this run
#   --only NAME        run just bench_<NAME> (repeatable)
#
# Environment:
#   BUILD_DIR             build tree (default: build)
#   KLOC_BENCH_OUTDIR     artifact directory
#                         (default: BUILD_DIR/bench-results)
#   KLOC_BENCH_TOLERANCE  relative regression tolerance (default 0.10)
#
# The baseline records its run mode; compare requires the same mode.
# CI gates with `bench.sh --quick --compare`, so the checked-in
# baseline is a --quick baseline: refresh it with
# `scripts/bench.sh --quick --update-baseline`.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
OUTDIR=${KLOC_BENCH_OUTDIR:-$BUILD_DIR/bench-results}
BASELINE=bench/BENCH_baseline.json
TOLERANCE=${KLOC_BENCH_TOLERANCE:-0.10}

QUICK=0
COMPARE=0
UPDATE=0
ONLY=()
while [ $# -gt 0 ]; do
    case "$1" in
      --quick) QUICK=1 ;;
      --compare) COMPARE=1 ;;
      --update-baseline) UPDATE=1 ;;
      --only) shift; ONLY+=("$1") ;;
      *)
        echo "usage: bench.sh [--quick] [--compare] [--update-baseline]" \
             "[--only NAME]..." >&2
        exit 2
        ;;
    esac
    shift
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

BENCHES=(micro_structures fig2_characterization fig4_twotier
         fig5a_optane fig5b_breakdown fig5c_objtypes fig6_sensitivity
         fig7_policies fig8_degradation table6_memusage
         ablation_percpu ablation_prefetch ablation_thp)
if [ ${#ONLY[@]} -gt 0 ]; then
    BENCHES=("${ONLY[@]}")
fi

mkdir -p "$OUTDIR"
rm -f "$OUTDIR"/BENCH_*.json
export KLOC_BENCH_OUTDIR="$OUTDIR"
if [ "$QUICK" = 1 ]; then
    export KLOC_BENCH_QUICK=1
fi

for bench in "${BENCHES[@]}"; do
    bin="$BUILD_DIR/bench/bench_$bench"
    if [ ! -x "$bin" ]; then
        echo "bench.sh: missing binary $bin" >&2
        exit 1
    fi
    args=()
    if [ "$bench" = micro_structures ] && [ "$QUICK" = 1 ]; then
        args+=(--benchmark_min_time=0.02)
    fi
    echo "== bench_$bench"
    "$bin" "${args[@]}" > "$OUTDIR/bench_$bench.out"
done

AGG_ARGS=(--outdir "$OUTDIR" --output "$OUTDIR/BENCH_results.json")
if [ "$QUICK" = 1 ]; then
    AGG_ARGS+=(--quick)
fi
python3 scripts/bench_json.py aggregate "${AGG_ARGS[@]}"

if [ "$UPDATE" = 1 ]; then
    cp "$OUTDIR/BENCH_results.json" "$BASELINE"
    echo "bench.sh: baseline updated: $BASELINE"
fi

if [ "$COMPARE" = 1 ]; then
    if [ ! -f "$BASELINE" ]; then
        echo "bench.sh: no baseline at $BASELINE (run with" \
             "--update-baseline first)" >&2
        exit 1
    fi
    python3 scripts/bench_json.py compare \
        --results "$OUTDIR/BENCH_results.json" \
        --baseline "$BASELINE" --tolerance "$TOLERANCE"
fi

echo "bench.sh: artifacts in $OUTDIR"
