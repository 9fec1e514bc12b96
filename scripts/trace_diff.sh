#!/usr/bin/env bash
# Trace identity against another revision: a change that claims to
# keep simulated behaviour must leave every trace and every report
# byte-identical.
#
#   scripts/trace_diff.sh <rev>
#
# Builds <rev>'s klocsim in a temporary git worktree under
# build-<rev> (removed on exit) and the working tree's klocsim in
# BUILD_DIR (default build). Then runs check.sh's trace runs
# (scripts/trace_runs.sh: every RUNS entry clean and under the fault
# spec, the optane command clean and faulted, the characterize
# command clean) once on each binary with --trace --check, and cmps
# the trace files and the stdout less its `trace:` line, which names
# the trace path. The trace file holds only the ring's last events;
# stdout's `event stream:` line is a digest of all of them. Against a
# revision that predates that line, the cases compare without it and
# say so.
#
# Exits 0 when everything matches, 1 on any difference or failed run,
# 2 on a usage error.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# != 1 ]; then
    echo "usage: trace_diff.sh <rev>" >&2
    exit 2
fi
rev=$1
BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
# shellcheck source=scripts/trace_runs.sh
. scripts/trace_runs.sh
# shellcheck source=scripts/worktree.sh
. scripts/worktree.sh

worktree_checkout trace_diff.sh build- "$rev"
cmake -B "$base/build" -S "$base/src" -DCMAKE_BUILD_TYPE=Release \
    > /dev/null
cmake --build "$base/build" -j "$JOBS" --target klocsim > /dev/null
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target klocsim > /dev/null
old_bin="$base/build/tools/klocsim"
new_bin="$BUILD_DIR/tools/klocsim"

write_fault_spec "$outdir/faults.txt"
failed=0

# Runs one klocsim command on both binaries at once, each under the
# 4 GiB address-space cap check.sh uses, and compares the results.
# Arguments: a name for the case, then the klocsim command and flags.
diff_case() {
    local name=$1
    shift
    local old="$outdir/$name.old" new="$outdir/$name.new" po pn rc=0
    (ulimit -v 4194304 && exec "$old_bin" "$@" --trace "$old.trace" \
        --check) > "$old.out" 2>&1 & po=$!
    (ulimit -v 4194304 && exec "$new_bin" "$@" --trace "$new.trace" \
        --check) > "$new.out" 2>&1 & pn=$!
    wait "$po" || rc=1
    wait "$pn" || rc=1
    if [ "$rc" != 0 ]; then
        tail -n 5 "$old.out" "$new.out" >&2
        echo "FAIL $name: klocsim failed or reported violations" >&2
        failed=1
        return
    fi
    # A revision older than the digest prints no `event stream:`
    # line: compare the rest, and say the digest was not compared.
    local skip='^trace: ' note=''
    if ! grep -q '^event stream: ' "$old.out"; then
        skip='^(trace|event stream): '
        note=" (no event-stream digest at $rev)"
    fi
    if ! cmp -s "$old.trace" "$new.trace"; then
        echo "FAIL $name: traces differ" >&2
        failed=1
    elif ! cmp -s <(grep -Ev "$skip" "$old.out") \
            <(grep -Ev "$skip" "$new.out"); then
        diff <(grep -Ev "$skip" "$old.out") \
            <(grep -Ev "$skip" "$new.out") >&2 || true
        echo "FAIL $name: stdout differs" >&2
        failed=1
    else
        echo "same $name$note"
    fi
}

for spec in "" "$outdir/faults.txt"; do
    suffix=${spec:+.faulted}
    fault_args=()
    [ -n "$spec" ] && fault_args=(--fault-spec "$spec")
    for run in $RUNS; do
        workload=${run%:*}
        strategy=${run#*:}
        # shellcheck disable=SC2046  # run_size prints a flag list
        diff_case "$workload.$strategy$suffix" run --workload "$workload" \
            --strategy "$strategy" $(run_size "$workload") \
            "${fault_args[@]}"
    done
    diff_case "optane$suffix" "${OPTANE_ARGS[@]}" "${fault_args[@]}"
done
diff_case characterize "${CHARACTERIZE_ARGS[@]}"

if [ "$failed" != 0 ]; then
    echo "trace_diff.sh: differences against $rev" >&2
    exit 1
fi
echo "trace_diff.sh: every trace and report matches $rev"
