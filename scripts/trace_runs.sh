# The klocsim runs whose --trace --check output scripts/check.sh
# (two runs of one binary) and scripts/trace_diff.sh (one run each of
# two revisions) compare byte for byte. Sourced, not run.
#
# Each RUNS entry is workload:strategy for `klocsim run`. rocksdb
# drives the fs data path and KLOC knode migration; filebench drives
# KLOC knode migration over many files, varmail the fs metadata path
# (create, fsync, unlink, readdir) and the journal's per-inode
# detach. thrash is almost all app-page touches through the
# poison-hooked access path plus the thrash policies' migrations:
# Nomad's transactional promotions and shadow demotions, Jenga's
# adapted promotion batch, and both under KLOC+Nomad.
RUNS="rocksdb:klocs filebench:klocs varmail:klocs thrash:nomad"
RUNS="$RUNS thrash:jenga thrash:kloc_nomad"

# The optane and characterize commands run the other protocols (the
# Fig. 5a socket move and warm-up pass; the characterization run,
# whose trace ends before teardown).
OPTANE_ARGS=(optane --workload filebench --strategy klocs
             --ops 2000 --scale 16)
CHARACTERIZE_ARGS=(characterize --workload redis --ops 2000 --scale 16)

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

# Arguments: a path. Writes the fault spec of the faulted runs there.
# The poison sites send hwpoison containment and KLOC soft-offline,
# and the checker's rule that a poisoned block leaves its frame only
# into quarantine, through every run, and journal_commit_crash sends
# varmail's unlinks through detach-during-crashed-transaction and
# replay.
write_fault_spec() {
    cat > "$1" <<'EOF'
seed 11
device_write prob 0.02
device_read prob 0.01
device_timeout prob 0.005
migration_no_space prob 0.1
journal_commit_crash prob 0.1
frame_poison_access prob 0.00001
frame_poison_copy prob 0.0001
EOF
}
