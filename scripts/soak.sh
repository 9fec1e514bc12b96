#!/usr/bin/env bash
# Chaos soak: drive every registry policy through the fault-injected
# soak harness (hwpoison access/scan/copy sites, scheduled poison
# storms, a tier offline/online cycle, journal crashes, device errors)
# and require every cell to finish invariant-clean with non-vacuous
# containment counters — and byte-identical traces whether the grid
# runs on one RunPool worker or many.
#
# Stages (default is the pooled soak grid + poison fuzz sweep):
#   --sanitize   build with -DKLOC_SANITIZE=ON (ASan+UBSan) in
#                BUILD_DIR-asan and soak there instead
#   --bench      also run bench_fig8_degradation at the default
#                size and print the degradation table
#   --repeat N   run the soak grid N times (default 1); every
#                repetition must produce the same verdict
#
# Environment:
#   BUILD_DIR   build tree (default: build; --sanitize uses
#               BUILD_DIR-asan)
#   KLOC_JOBS   RunPool worker count for the pooled grid
#               (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
export KLOC_JOBS=${KLOC_JOBS:-$(nproc)}

DO_SANITIZE=0
DO_BENCH=0
REPEAT=1
while [ $# -gt 0 ]; do
    case "$1" in
      --sanitize) DO_SANITIZE=1 ;;
      --bench) DO_BENCH=1 ;;
      --repeat) shift; REPEAT="$1" ;;
      *) echo "usage: soak.sh [--sanitize] [--bench] [--repeat N]" >&2
         exit 2 ;;
    esac
    shift
done

if [ "$DO_SANITIZE" = 1 ]; then
    SOAK_DIR="${BUILD_DIR}-asan"
    cmake -B "$SOAK_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKLOC_SANITIZE=ON
else
    SOAK_DIR="$BUILD_DIR"
    cmake -B "$SOAK_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
TARGETS=(test_fault)
if [ "$DO_BENCH" = 1 ]; then
    TARGETS+=(bench_fig8_degradation)
fi
cmake --build "$SOAK_DIR" -j "$JOBS" --target "${TARGETS[@]}"

# The soak grid (every conformance policy x 8 seeds, pooled and then
# serial for the byte-identity comparison) plus the poison-storm fuzz
# sweep. gtest runs the filters in one process invocation per round.
for round in $(seq 1 "$REPEAT"); do
    if [ "$REPEAT" -gt 1 ]; then
        echo "== soak round $round/$REPEAT"
    fi
    "$SOAK_DIR"/tests/test_fault \
        --gtest_filter='ChaosSoak*:FaultFuzzPoisonSweep*' || {
        echo "FAIL: chaos soak reported invariant violations" >&2
        exit 1
    }
done

if [ "$DO_BENCH" = 1 ]; then
    # Degradation shape check: throughput under escalating poison load
    # must decline gracefully, never collapse. The binary prints the
    # table and records degradation.<policy>.graceful in its report.
    KLOC_BENCH_OUTDIR="$SOAK_DIR/bench-results" \
        "$SOAK_DIR"/bench/bench_fig8_degradation
fi

echo "soak.sh: chaos soak clean ($REPEAT round(s), KLOC_JOBS=$KLOC_JOBS)"
