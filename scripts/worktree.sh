# Checks out another revision in a temporary git worktree for the
# scripts that compare the working tree against it (trace_diff.sh,
# perf_pairs.sh). Sourced, not run; the caller has cd'd to the repo
# root.

# Arguments: the calling script's name (for messages), a directory
# prefix, the revision. Exits 2 when the revision is not a commit or
# the directory <prefix><rev> already exists. Otherwise checks the
# revision out in $base/src, where base is <prefix><rev> with every
# character outside [A-Za-z0-9._-] made `_`, makes an empty temporary
# directory $outdir, and removes both on exit.
worktree_checkout() {
    local script=$1 prefix=$2 rev=$3 sha
    sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
        echo "$script: unknown revision '$rev'" >&2
        exit 2
    }
    base="$prefix$(printf '%s' "$rev" | tr -c 'A-Za-z0-9._-' _)"
    if [ -e "$base" ]; then
        echo "$script: $base exists; remove it first" >&2
        exit 2
    fi
    outdir=$(mktemp -d)
    trap worktree_cleanup EXIT
    git worktree add --quiet --detach "$base/src" "$sha"
}

worktree_cleanup() {
    rm -rf "$outdir"
    git worktree remove --force "$base/src" 2>/dev/null || true
    rm -rf "$base"
}
