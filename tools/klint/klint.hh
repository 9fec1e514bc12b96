/**
 * @file
 * klint: domain-specific static analysis for the KLOCs simulator.
 *
 * klint enforces repo-specific invariants that generic linters
 * cannot know about:
 *
 *   determinism       — no iteration over unordered containers in
 *                       simulation-order code; no wall-clock or
 *                       libc randomness outside src/base.
 *   determinism-taint — values produced by unordered-container
 *                       iteration must not flow into trace emission,
 *                       policy decisions, or BENCH metrics without
 *                       passing through sortedSnapshot().
 *   reentrancy-hazard — no index held into a mutable container
 *                       across a call that can transitively reach a
 *                       mutator of that container (the PR-7
 *                       findKnode bug class).
 *   iterator-invalidation — no mutation of a container reachable
 *                       from inside a range-for or gang-lookup
 *                       scratch walk over it.
 *   checker-coverage  — every TraceEventType enumerator is handled
 *                       by the InvariantChecker.
 *   fault-site-coverage — every FaultSite enumerator is consulted at
 *                       a call site and checked by the
 *                       InvariantChecker's FaultInject dispatch.
 *   layering          — #includes respect the subsystem DAG.
 *   units             — public APIs in mem/, fs/, alloc/ headers use
 *                       strong types (Tick/Bytes/Pfn/TierId/
 *                       FrameCount), not raw 64-bit integers.
 *   trace-args        — Tracer::emit call sites pass exactly the
 *                       argument count the event's spec declares.
 *   hot-path-alloc    — no per-event heap allocation (new,
 *                       make_unique, make_shared) in function bodies
 *                       that emit trace events; hot paths reuse
 *                       scratch or arena storage.
 *   include-hygiene   — canonical header guards, no parent-relative
 *                       includes.
 *   sim-owned-events  — no std::shared_ptr/std::weak_ptr under
 *                       src/sim: events are owned nodes that cancel.
 *   no-mutable-global — no mutable static-storage state shared
 *                       across RunPool runs (src/, bench/, tests/).
 *   suppression-format — suppression comments carry a rule name and
 *                       a rationale.
 *
 * Findings are suppressed with a justification comment of the form
 * `klint:allow(<rule>): <why>` (or `allow(all)`) on the finding's
 * line or one of the two lines above it. A suppression without a
 * rule name or rationale is itself a finding and suppresses nothing.
 *
 * See docs/ANALYSIS.md for the full rule catalogue and rationale.
 */

#ifndef KLOC_TOOLS_KLINT_KLINT_HH
#define KLOC_TOOLS_KLINT_KLINT_HH

#include <map>
#include <string>
#include <vector>

#include "tools/klint/callgraph.hh"
#include "tools/klint/indexer.hh"
#include "tools/klint/lexer.hh"

namespace klint {

struct Finding
{
    std::string rule;
    std::string file;  ///< repo-relative path
    int line;
    std::string message;
};

/** Cache effectiveness counters for one runKlint() invocation. */
struct RunStats
{
    size_t filesScanned = 0;
    size_t indexCacheHits = 0;
    size_t indexCacheMisses = 0;
};

struct Options
{
    /** Repo root to scan (contains src/ and optionally tools/,
     *  bench/, tests/). */
    std::string root = ".";
    /** Rule names to run; empty = all. */
    std::vector<std::string> rules;
    /** Path of the indexed-symbol cache; empty disables caching. */
    std::string cachePath;
    /** When set, filled with cache hit/miss counters. */
    RunStats *stats = nullptr;
};

/** Everything the rules see: the lexed and indexed repo. */
struct Context
{
    std::string root;
    std::vector<SourceFile> files;
    /** path -> index into files. */
    std::map<std::string, size_t> byPath;
    /** Per-file symbol index, parallel to files. */
    std::vector<FileIndex> indexes;
    /** Call graph over the src/ subset (see callgraph.hh). */
    CallGraph graph;

    const SourceFile *find(const std::string &path) const;
    const FileIndex *findIndex(const std::string &path) const;
};

using RuleFn = void (*)(const Context &, std::vector<Finding> &);

struct Rule
{
    const char *name;
    const char *summary;
    RuleFn fn;
};

/** The ordered rule catalogue. */
const std::vector<Rule> &ruleCatalogue();

/**
 * Run the selected rules over @p opts.root. Findings are returned
 * sorted by (file, line, rule) with suppressed findings removed.
 */
std::vector<Finding> runKlint(const Options &opts);

/**
 * Does @p comment validly suppress @p rule? Requires the v2 format
 * `klint:allow(<rule>): <rationale>` (allow(all) also accepted);
 * bare or rationale-less suppressions never suppress.
 */
bool suppressionCovers(const std::string &comment,
                       const std::string &rule);

/** FNV-1a 64-bit hash (file content keys for the symbol cache). */
uint64_t fnv1a(const std::string &data);

} // namespace klint

#endif // KLOC_TOOLS_KLINT_KLINT_HH
