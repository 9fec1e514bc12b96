#!/usr/bin/env bash
# Repo check: configure, build, run the full test suite, then verify
# that event tracing is deterministic end-to-end (two identical
# klocsim runs must dump byte-identical traces, with the invariant
# checker clean on both).
#
# Independent simulation runs execute concurrently: the a/b trace
# pairs run as background shell jobs, and the fault-fuzz sweep runs
# its seeds on the in-process RunPool with KLOC_JOBS workers. All
# comparisons stay byte-exact — parallelism never touches sim time.
#
# Optional stages (any combination, default is build+test+determinism):
#   --lint      run klint and, when available, clang-tidy over src/
#   --lint-fast build only the klint target and run it against the
#               on-disk index cache, skipping everything else — the
#               seconds-fast pre-commit / CI lint path. Extra klint
#               flags (e.g. --github) pass through via KLINT_FLAGS.
#   --sanitize  rebuild with -DKLOC_SANITIZE=ON (ASan+UBSan) in
#               BUILD_DIR-asan and run the full test suite there
#   --tsan      rebuild with -DKLOC_TSAN=ON in BUILD_DIR-tsan and run
#               the RunPool/parallel-identity/fuzz-sweep tests and
#               the pooled workload and poison-storm identity tests
#               there
#   --all       everything above (except --lint-fast, which --lint
#               subsumes)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
export KLOC_JOBS=${KLOC_JOBS:-$(nproc)}

DO_LINT=0
DO_LINT_FAST=0
DO_SANITIZE=0
DO_TSAN=0
for arg in "$@"; do
    case "$arg" in
      --lint) DO_LINT=1 ;;
      --lint-fast) DO_LINT_FAST=1 ;;
      --sanitize) DO_SANITIZE=1 ;;
      --tsan) DO_TSAN=1 ;;
      --all) DO_LINT=1; DO_SANITIZE=1; DO_TSAN=1 ;;
      *) echo "usage: check.sh [--lint] [--lint-fast] [--sanitize]" \
              "[--tsan] [--all]" >&2
         exit 2 ;;
    esac
done

if [ "$DO_LINT_FAST" = 1 ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
    cmake --build "$BUILD_DIR" -j "$JOBS" --target klint
    # shellcheck disable=SC2086  # KLINT_FLAGS is a flag list
    "$BUILD_DIR"/tools/klint --root=. \
        --cache="${KLINT_CACHE:-$BUILD_DIR/klint-cache.txt}" \
        ${KLINT_FLAGS:-} || {
        echo "FAIL: klint reported findings" >&2
        exit 1
    }
    echo "check.sh: lint-fast OK"
    exit 0
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# Golden-style determinism check on the CLI path: same command, two
# fresh processes, identical serialized traces, zero violations. The
# two runs are independent processes, so they run concurrently. The
# runs (RUNS, OPTANE_ARGS, CHARACTERIZE_ARGS, run_size) and the fault
# spec come from scripts/trace_runs.sh, which scripts/trace_diff.sh
# shares.
# shellcheck source=scripts/trace_runs.sh
. scripts/trace_runs.sh
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
# Every klocsim runs under a 4 GiB address-space cap, so a run that
# allocates without bound fails this script instead of exhausting
# the machine's memory.
klocsim() {
    (ulimit -v 4194304 && exec "$BUILD_DIR"/tools/klocsim "$@")
}
# A bare `wait` returns 0 whatever its jobs returned, so each run's
# status (klocsim --check exits 2 on a violation) is collected by pid.
# A thrash run must also migrate pages, or it checks no migration.
# Arguments: the two job pids, then their trace paths, then the
# workload.
wait_both() {
    local rc=0
    wait "$1" || rc=1
    wait "$2" || rc=1
    if [ "$rc" != 0 ]; then
        tail -n 20 "$3.out" "$4.out" >&2
        echo "FAIL: klocsim failed or reported invariant violations" >&2
        exit 1
    fi
    if [ "$5" = thrash ] &&
        grep -q '^  migrations  *0 pages' "$3.out" "$4.out"; then
        grep '^  migrations' "$3.out" "$4.out" >&2
        echo "FAIL: klocsim thrash run migrated no pages" >&2
        exit 1
    fi
}
# Runs one klocsim command twice at once, each with --trace and
# --check, and fails unless both exit 0 and their traces and stdout
# match. The trace file holds only the ring's last events; stdout's
# `event stream:` line digests all of them. Its `trace:` line names
# the trace path, so it is left out of the comparison.
# Arguments: a name for the pair, the workload, then the klocsim
# command and its flags.
check_pair() {
    local name=$1 workload=$2
    shift 2
    local a="$tracedir/$name.a.trace" b="$tracedir/$name.b.trace"
    local pa pb
    klocsim "$@" --trace "$a" --check > "$a.out" & pa=$!
    klocsim "$@" --trace "$b" --check > "$b.out" & pb=$!
    wait_both "$pa" "$pb" "$a" "$b" "$workload"
    cmp "$a" "$b" || {
        echo "FAIL: klocsim $* traces differ between identical runs" >&2
        exit 1
    }
    cmp <(grep -v '^trace: ' "$a.out") <(grep -v '^trace: ' "$b.out") || {
        echo "FAIL: klocsim $* stdout differs between identical runs" >&2
        exit 1
    }
}
for run in $RUNS; do
    workload=${run%:*}
    strategy=${run#*:}
    # shellcheck disable=SC2046  # run_size prints a flag list
    check_pair "$workload.$strategy" "$workload" run \
        --workload "$workload" --strategy "$strategy" \
        $(run_size "$workload")
done

# The optane and characterize protocols: one clean pair each.
check_pair optane filebench "${OPTANE_ARGS[@]}"
check_pair characterize redis "${CHARACTERIZE_ARGS[@]}"

# Same check with fault injection armed: injected faults, retries,
# and recovery must land on the same virtual ticks in both runs. The
# optane pair runs soft-offline on the Optane platform.
write_fault_spec "$tracedir/faults.txt"
for run in $RUNS; do
    workload=${run%:*}
    strategy=${run#*:}
    # shellcheck disable=SC2046  # run_size prints a flag list
    check_pair "$workload.$strategy.faulted" "$workload" run \
        --workload "$workload" --strategy "$strategy" \
        $(run_size "$workload") --fault-spec "$tracedir/faults.txt"
done
check_pair optane.faulted filebench "${OPTANE_ARGS[@]}" \
    --fault-spec "$tracedir/faults.txt"

# The randomized fault fuzz must be invariant-clean on every seed;
# the sweep fans the seeds out over KLOC_JOBS RunPool workers.
"$BUILD_DIR"/tests/test_fault --gtest_filter='FaultFuzzSweep*' \
    > /dev/null || {
    echo "FAIL: fault fuzz reported invariant violations" >&2
    exit 1
}

if [ "$DO_LINT" = 1 ]; then
    # klint: the repo's own static analysis (see docs/ANALYSIS.md).
    "$BUILD_DIR"/tools/klint --root=. || {
        echo "FAIL: klint reported findings" >&2
        exit 1
    }
    # clang-tidy is best-effort: run it when installed (CI installs
    # it; a bare container may not have it).
    if command -v clang-tidy >/dev/null 2>&1; then
        cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
            > /dev/null
        mapfile -t tidy_files < <(git ls-files 'src/*.cc')
        clang-tidy -p "$BUILD_DIR" --quiet "${tidy_files[@]}" || {
            echo "FAIL: clang-tidy reported findings" >&2
            exit 1
        }
    else
        echo "check.sh: clang-tidy not installed, skipping"
    fi
    echo "check.sh: lint stage OK"
fi

if [ "$DO_SANITIZE" = 1 ]; then
    ASAN_DIR="${BUILD_DIR}-asan"
    cmake -B "$ASAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKLOC_SANITIZE=ON
    cmake --build "$ASAN_DIR" -j "$JOBS"
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"
    echo "check.sh: sanitizer stage OK"
fi

if [ "$DO_TSAN" = 1 ]; then
    # ThreadSanitizer smoke over the concurrency surface: the pool
    # itself, the parallel-vs-serial identity tests, the pooled fuzz
    # sweep, and the pooled workload and poison-storm identity tests.
    # The rest of the suite is single-threaded and runs under
    # ASan/UBSan above.
    TSAN_DIR="${BUILD_DIR}-tsan"
    cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DKLOC_TSAN=ON
    cmake --build "$TSAN_DIR" -j "$JOBS"
    ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
        -R 'RunPool|ParallelIdentity|FaultFuzz|ChaosSoakWorkloads|WorkloadParam\.(TracesByteIdentical|TeardownReleasesMemoryOnPool)'
    echo "check.sh: tsan stage OK"
fi

echo "check.sh: build, tests, trace and fault determinism all OK"
