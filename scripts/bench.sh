#!/usr/bin/env bash
# Benchmark pipeline: Release build, run every bench binary, collect
# the per-binary BENCH_<name>.json artifacts (schema kloc-bench-v1,
# bench/report.hh) into BENCH_results.json, and optionally gate the
# deterministic metrics against the checked-in baseline.
#
#   --compare          fail if any gate:true metric moves more than
#                      10% either way from bench/BENCH_baseline.json
#   --update-baseline  rewrite bench/BENCH_baseline.json from this run
#   --only NAME        run just bench_<NAME> (repeatable); refused
#                      with --compare and --update-baseline
#
# Environment:
#   BUILD_DIR             build tree (default: build)
#   KLOC_BENCH_OUTDIR     artifact directory
#                         (default: BUILD_DIR/bench-results)
#   KLOC_BENCH_OPS, KLOC_BENCH_SCALE
#                         resize every run (bench/harness.hh); refused
#                         with --compare and --update-baseline
#
# The baseline is recorded at the default size (60000 operations at
# 1:64), the size EXPERIMENTS.md quotes. CI gates with
# `bench.sh --compare`; refresh the baseline with
# `scripts/bench.sh --update-baseline`.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
OUTDIR=${KLOC_BENCH_OUTDIR:-$BUILD_DIR/bench-results}
BASELINE=bench/BENCH_baseline.json

COMPARE=0
UPDATE=0
ONLY=()
while [ $# -gt 0 ]; do
    case "$1" in
      --compare) COMPARE=1 ;;
      --update-baseline) UPDATE=1 ;;
      --only) shift; ONLY+=("$1") ;;
      *)
        echo "usage: bench.sh [--compare] [--update-baseline]" \
             "[--only NAME]..." >&2
        exit 2
        ;;
    esac
    shift
done

# The baseline holds every bench at the default size only: a resized
# or partial run can neither be gated against it nor replace it.
if { [ "$COMPARE" = 1 ] || [ "$UPDATE" = 1 ]; } &&
   { [ -n "${KLOC_BENCH_OPS+x}" ] || [ -n "${KLOC_BENCH_SCALE+x}" ] ||
     [ ${#ONLY[@]} -gt 0 ]; }; then
    echo "bench.sh: --compare and --update-baseline run every bench at" \
         "the default size; drop --only and unset KLOC_BENCH_OPS and" \
         "KLOC_BENCH_SCALE" >&2
    exit 2
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"

BENCHES=(fig2_characterization fig4_twotier fig5a_optane fig5c_objtypes
         fig6_sensitivity fig7_policies fig8_degradation ablation_percpu
         ablation_prefetch ablation_thp)
if [ ${#ONLY[@]} -gt 0 ]; then
    BENCHES=("${ONLY[@]}")
fi

mkdir -p "$OUTDIR"
rm -f "$OUTDIR"/BENCH_*.json
export KLOC_BENCH_OUTDIR="$OUTDIR"

for bench in "${BENCHES[@]}"; do
    bin="$BUILD_DIR/bench/bench_$bench"
    if [ ! -x "$bin" ]; then
        echo "bench.sh: missing binary $bin" >&2
        exit 1
    fi
    echo "== bench_$bench"
    "$bin" > "$OUTDIR/bench_$bench.out"
done

python3 scripts/bench_json.py aggregate --outdir "$OUTDIR" \
    --output "$OUTDIR/BENCH_results.json"

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
        --baseline "$BASELINE"
fi

echo "bench.sh: artifacts in $OUTDIR"
