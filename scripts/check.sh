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
# two runs are independent processes, so they run concurrently.
# Each entry is workload:strategy. rocksdb drives the fs data path
# and KLOC knode migration; varmail drives the fs metadata path
# (create, fsync, unlink, readdir) and the journal's per-inode
# detach. thrash is almost all app-page touches through the
# poison-hooked access path plus the thrash policies' migrations:
# Nomad's transactional promotions and shadow demotions, Jenga's
# adapted promotion batch, and both under KLOC+Nomad.
RUNS="rocksdb:klocs varmail:klocs thrash:nomad thrash:jenga thrash:kloc_nomad"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
# Arguments: workload. Prints the run size for it: thrash needs
# 10000 ops at 1:256 before its working set outgrows the fast tier
# and pages migrate (2000 ops at 1:16 migrate none).
run_size() {
    if [ "$1" = thrash ]; then
        echo "--ops 10000 --scale 256"
    else
        echo "--ops 2000 --scale 16"
    fi
}
# Arguments: workload, strategy, trace path.
run_traced() {
    # shellcheck disable=SC2046  # run_size prints a flag list
    "$BUILD_DIR"/tools/klocsim run --workload "$1" --strategy "$2" \
        $(run_size "$1") --trace "$3" --check > "$3.out"
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
for run in $RUNS; do
    workload=${run%:*}
    strategy=${run#*:}
    a="$tracedir/$workload.$strategy.a.trace"
    b="$tracedir/$workload.$strategy.b.trace"
    run_traced "$workload" "$strategy" "$a" & pa=$!
    run_traced "$workload" "$strategy" "$b" & pb=$!
    wait_both "$pa" "$pb" "$a" "$b" "$workload"
    cmp "$a" "$b" || {
        echo "FAIL: klocsim $workload/$strategy traces differ between" \
            "identical runs" >&2
        exit 1
    }
done

# The optane and characterize commands run the other protocols (the
# Fig. 5a socket move and warm-up pass; the characterization run,
# whose trace ends before teardown): one clean pair each.
# Arguments: trace path, then the klocsim command and its flags.
run_command() {
    local trace=$1
    shift
    "$BUILD_DIR"/tools/klocsim "$@" --ops 2000 --scale 16 \
        --trace "$trace" --check > "$trace.out"
}
for command in "optane --workload filebench --strategy klocs" \
               "characterize --workload redis"; do
    name=${command%% *}
    a="$tracedir/$name.a.trace"
    b="$tracedir/$name.b.trace"
    # shellcheck disable=SC2086  # $command is a command and flag list
    run_command "$a" $command & pa=$!
    # shellcheck disable=SC2086
    run_command "$b" $command & pb=$!
    wait_both "$pa" "$pb" "$a" "$b" "$name"
    cmp "$a" "$b" || {
        echo "FAIL: klocsim $command traces differ between identical" \
            "runs" >&2
        exit 1
    }
done

# Same check with fault injection armed: injected faults, retries,
# and recovery must land on the same virtual ticks in both runs. The
# poison sites send hwpoison containment, and the checker's rule that
# a poisoned block leaves its frame only into quarantine, through
# every run, and journal_commit_crash sends varmail's unlinks through
# detach-during-crashed-transaction and replay.
cat > "$tracedir/faults.txt" <<'EOF'
seed 11
device_write prob 0.02
device_read prob 0.01
device_timeout prob 0.005
migration_no_space prob 0.1
journal_commit_crash prob 0.1
frame_poison_access prob 0.00001
frame_poison_copy prob 0.0001
EOF
# Arguments: workload, strategy, trace path.
run_faulted() {
    # shellcheck disable=SC2046  # run_size prints a flag list
    "$BUILD_DIR"/tools/klocsim run --workload "$1" --strategy "$2" \
        $(run_size "$1") --fault-spec "$tracedir/faults.txt" \
        --trace "$3" --check > "$3.out"
}
for run in $RUNS; do
    workload=${run%:*}
    strategy=${run#*:}
    a="$tracedir/$workload.$strategy.fa.trace"
    b="$tracedir/$workload.$strategy.fb.trace"
    run_faulted "$workload" "$strategy" "$a" & pa=$!
    run_faulted "$workload" "$strategy" "$b" & pb=$!
    wait_both "$pa" "$pb" "$a" "$b" "$workload"
    cmp "$a" "$b" || {
        echo "FAIL: klocsim $workload/$strategy traces differ between" \
            "identical faulted runs" >&2
        exit 1
    }
done

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
