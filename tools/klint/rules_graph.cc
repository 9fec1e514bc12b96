/**
 * @file
 * The interprocedural klint rules. Unlike rules.cc these reason over
 * the symbol index (indexer.hh) and the project call graph
 * (callgraph.hh) instead of raw token streams alone:
 *
 *   reentrancy-hazard     an index/reference into a mutable container
 *                         is held across a call that can transitively
 *                         reach a mutator of that container — the
 *                         PR-7 findKnode bug class, where draining
 *                         scheduled callbacks re-entered the per-CPU
 *                         MRU list mid-rotation.
 *   iterator-invalidation a container is mutated from inside a
 *                         range-for over it, or a gang-lookup's
 *                         backing table is mutated while the scratch
 *                         results are still being walked.
 *   determinism-taint     a value whose content depends on unordered-
 *                         container iteration order flows into trace
 *                         emission, a policy decision, or a BENCH
 *                         metric without passing sortedSnapshot().
 *
 * Known token-level blind spots, accepted deliberately: a conditional
 * `return` in a braceless `if` reads as an unconditional exit in the
 * safe-tail scan, and taint does not follow values through function
 * arguments (only through returns). Both are rare in this codebase
 * and cheap to suppress when they misfire.
 */

#include "tools/klint/klint.hh"

#include <map>
#include <set>
#include <string>

namespace klint {

namespace {

using Tokens = std::vector<Token>;

/** Index of the bracket matching toks[i] (an opener), or end. */
int
matchFwd(const Tokens &toks, int i, const char *open, const char *close)
{
    int depth = 0;
    for (int n = static_cast<int>(toks.size()); i < n; ++i) {
        if (toks[i].is(open))
            ++depth;
        else if (toks[i].is(close) && --depth == 0)
            return i;
    }
    return static_cast<int>(toks.size()) - 1;
}

struct LoopInfo
{
    int forTok = 0;    ///< the 'for' keyword
    int headOpen = 0;  ///< '(' of the loop head
    int headClose = 0; ///< matching ')'
    int colon = -1;    ///< range-for ':' at head depth 1, or -1
    int bodyBegin = 0; ///< '{' (braced) or headClose (single stmt)
    int bodyEnd = 0;   ///< matching '}' or the terminating ';'
};

/** All for-loops (classic and range) in toks[begin, end). */
std::vector<LoopInfo>
findLoops(const Tokens &toks, int begin, int end)
{
    std::vector<LoopInfo> loops;
    for (int i = begin; i < end; ++i) {
        if (!toks[i].ident() || toks[i].text != "for" ||
            i + 1 >= end || !toks[i + 1].is("("))
            continue;
        LoopInfo loop;
        loop.forTok = i;
        loop.headOpen = i + 1;
        loop.headClose = matchFwd(toks, i + 1, "(", ")");
        int depth = 0;
        for (int j = loop.headOpen; j < loop.headClose; ++j) {
            if (toks[j].is("(") || toks[j].is("[") || toks[j].is("{"))
                ++depth;
            else if (toks[j].is(")") || toks[j].is("]") ||
                     toks[j].is("}"))
                --depth;
            else if (toks[j].is(":") && depth == 1) {
                loop.colon = j;
                break;
            } else if (toks[j].is(";") && depth == 1) {
                break;
            }
        }
        const int b = loop.headClose + 1;
        if (b < end && toks[b].is("{")) {
            loop.bodyBegin = b;
            loop.bodyEnd = matchFwd(toks, b, "{", "}");
        } else {
            loop.bodyBegin = loop.headClose;
            int d = 0;
            int j = b;
            for (; j < end; ++j) {
                if (toks[j].is("(") || toks[j].is("[") || toks[j].is("{"))
                    ++d;
                else if (toks[j].is(")") || toks[j].is("]") ||
                         toks[j].is("}"))
                    --d;
                else if (toks[j].is(";") && d == 0)
                    break;
            }
            loop.bodyEnd = j;
        }
        loops.push_back(loop);
    }
    return loops;
}

/** Body token ranges of functions nested inside @p fn (lambdas). */
std::vector<std::pair<int, int>>
nestedRanges(const FileIndex &index, const FunctionDef &fn)
{
    std::vector<std::pair<int, int>> ranges;
    for (const FunctionDef &other : index.functions) {
        if (&other != &fn && other.bodyBegin > fn.bodyBegin &&
            other.bodyEnd <= fn.bodyEnd)
            ranges.emplace_back(other.bodyBegin, other.bodyEnd);
    }
    return ranges;
}

bool
inAnyRange(const std::vector<std::pair<int, int>> &ranges, int tok)
{
    for (const auto &[a, b] : ranges)
        if (tok > a && tok < b)
            return true;
    return false;
}

/** Is @p fn nested inside another function in @p index? */
bool
isNestedDef(const FileIndex &index, const FunctionDef &fn)
{
    for (const FunctionDef &other : index.functions) {
        if (&other != &fn && fn.bodyBegin > other.bodyBegin &&
            fn.bodyEnd <= other.bodyEnd)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Rule: reentrancy-hazard

/**
 * Safe-tail scan for a hazardous event ending just before @p from:
 * the tail is safe iff control exits (return/break/throw) before any
 * *positional* use of the loop state, and before the loop body ends
 * (falling off the body re-reads the index in the loop condition).
 *
 * Positional uses are subscripts into a held container name
 * (`list[i]`, `list[0]`) and mutator calls on a held name whose
 * arguments mention an index variable (`erase(begin() + i)`). An
 * index variable read as a plain scalar — charging `i * stepCost` of
 * CPU time, say — does not dereference the container and is fine.
 */
bool
safeTail(const Tokens &toks, int from, int bodyEnd,
         const std::set<std::string> &indexVars,
         const std::set<std::string> &heldNames)
{
    for (int j = from; j < bodyEnd; ++j) {
        const Token &t = toks[j];
        if (!t.ident())
            continue;
        if (t.text == "return" || t.text == "break" || t.text == "throw")
            return true;
        if (!heldNames.count(t.text))
            continue;
        if (j + 1 < bodyEnd && toks[j + 1].is("["))
            return false;
        if (j + 3 < bodyEnd &&
            (toks[j + 1].is(".") || toks[j + 1].is("->")) &&
            isMutatorMethod(toks[j + 2].text) && toks[j + 3].is("(")) {
            const int close = matchFwd(toks, j + 3, "(", ")");
            for (int k = j + 4; k >= 0 && k < close; ++k)
                if (toks[k].ident() && indexVars.count(toks[k].text))
                    return false;
        }
    }
    return false;
}

void
ruleReentrancyHazard(const Context &ctx, std::vector<Finding> &findings)
{
    const auto &nodes = ctx.graph.nodes();
    for (size_t n = 0; n < nodes.size(); ++n) {
        const FunctionDef &fn = *nodes[n].def;
        const SourceFile *file = ctx.find(nodes[n].file);
        const FileIndex *index = ctx.findIndex(nodes[n].file);
        if (!file || !index)
            continue;
        const Tokens &toks = file->tokens;
        const auto nested = nestedRanges(*index, fn);

        for (const LoopInfo &loop :
             findLoops(toks, fn.bodyBegin + 1, fn.bodyEnd)) {
            if (loop.colon >= 0 || inAnyRange(nested, loop.forTok))
                continue;  // range-fors: iterator-invalidation's turf

            // Index variables declared in the init clause.
            std::set<std::string> indexVars;
            for (int j = loop.headOpen + 1; j < loop.headClose; ++j) {
                if (toks[j].is(";"))
                    break;
                if (toks[j].ident() && j + 1 < loop.headClose &&
                    toks[j + 1].is("=") &&
                    !(j + 2 < loop.headClose && toks[j + 2].is("=")))
                    indexVars.insert(toks[j].text);
            }

            // Containers the loop holds an index/reference into:
            // anything subscripted in the loop, plus anything whose
            // size() bounds the condition.
            std::map<std::string, std::set<std::string>> held;
            for (int j = loop.headOpen + 1; j < loop.bodyEnd; ++j) {
                if (!toks[j].ident())
                    continue;
                const bool subscripted =
                    j + 1 < loop.bodyEnd && toks[j + 1].is("[");
                const bool sizeBound =
                    j < loop.headClose && j + 2 < loop.headClose &&
                    (toks[j + 1].is(".") || toks[j + 1].is("->")) &&
                    toks[j + 2].text == "size";
                if (!subscripted && !sizeBound)
                    continue;
                const std::string root =
                    resolveRoot(fn, toks[j].text, false);
                if (!root.empty())
                    held[root].insert(toks[j].text);
            }
            if (held.empty())
                continue;

            const int lo = loop.bodyBegin, hi = loop.bodyEnd;

            for (const CallSite &call : fn.calls) {
                if (call.tok <= lo || call.tok >= hi ||
                    inAnyRange(nested, call.tok))
                    continue;
                const int after =
                    matchFwd(toks, call.tok + 1, "(", ")") + 1;
                for (const auto &[root, names] : held) {
                    if (!ctx.graph.callMutates(static_cast<int>(n),
                                               call, root))
                        continue;
                    if (safeTail(toks, after, hi, indexVars, names))
                        continue;
                    findings.push_back(
                        {"reentrancy-hazard", file->path, call.line,
                         fn.displayName() + " holds an index into '" +
                             root + "' across '" + call.callee +
                             "', which can reach a mutator of it (" +
                             ctx.graph.witness(static_cast<int>(n),
                                               call, root) +
                             "); finish container updates before the "
                             "call or re-establish the index after"});
                    break;
                }
            }

            for (const Mutation &m : fn.mutations) {
                if (m.tok <= lo || m.tok >= hi ||
                    inAnyRange(nested, m.tok))
                    continue;
                // Appends never shift existing elements, so every
                // index the loop holds stays valid (this rule tracks
                // indexes, not iterators — capacity growth is
                // irrelevant here).
                if (m.method == "push_back" ||
                    m.method == "emplace_back" || m.method == "pushBack")
                    continue;
                auto it = held.find(m.root);
                if (it == held.end())
                    continue;
                const int after = matchFwd(toks, m.tok + 1, "(", ")") + 1;
                if (safeTail(toks, after, hi, indexVars, it->second))
                    continue;
                findings.push_back(
                    {"reentrancy-hazard", file->path, m.line,
                     fn.displayName() + ": '" + m.method + "()' on '" +
                         m.root + "' invalidates the index this loop "
                         "still uses afterwards; exit the loop or "
                         "re-establish the index after mutating"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: iterator-invalidation

/** Gang-lookup-style APIs: fill a scratch vector with pointers into
 *  the receiver, so mutating the receiver invalidates the scratch. */
bool
isGangWalkCallee(const std::string &callee)
{
    return callee == "gangLookup" || callee == "gangLookupTag" ||
           callee == "collectDirty" || callee == "collectHot" ||
           callee == "collectReferenced";
}

void
ruleIteratorInvalidation(const Context &ctx,
                         std::vector<Finding> &findings)
{
    std::map<const FunctionDef *, int> nodeOf;
    for (size_t i = 0; i < ctx.graph.nodes().size(); ++i)
        nodeOf[ctx.graph.nodes()[i].def] = static_cast<int>(i);

    for (size_t f = 0; f < ctx.files.size(); ++f) {
        const SourceFile &file = ctx.files[f];
        const FileIndex &index = ctx.indexes[f];
        const Tokens &toks = file.tokens;

        for (const FunctionDef &fn : index.functions) {
            const auto nested = nestedRanges(index, fn);

            // Scratch root -> table root, bound by gang-walk calls.
            std::map<std::string, std::string> gangBind;
            for (const CallSite &call : fn.calls) {
                if (!isGangWalkCallee(call.callee) ||
                    call.recvRoot.empty())
                    continue;
                for (const std::string &arg : call.argRoots) {
                    if (!arg.empty()) {
                        gangBind[arg] = call.recvRoot;
                        break;
                    }
                }
            }

            for (const LoopInfo &loop :
                 findLoops(toks, fn.bodyBegin + 1, fn.bodyEnd)) {
                if (inAnyRange(nested, loop.forTok))
                    continue;

                // root -> what the loop iterates ("" = the root
                // itself; else the scratch holding pointers into it).
                std::map<std::string, std::string> watched;
                if (loop.colon >= 0) {
                    bool laundered = false;
                    std::string root;
                    for (int j = loop.colon + 1; j < loop.headClose;
                         ++j) {
                        if (!toks[j].ident())
                            continue;
                        if (toks[j].text == "sortedSnapshot") {
                            laundered = true;  // iterates a copy
                            break;
                        }
                        if (root.empty()) {
                            const bool sub =
                                j + 1 < loop.headClose &&
                                toks[j + 1].is("[");
                            root = resolveRoot(fn, toks[j].text, sub);
                        }
                    }
                    if (laundered || root.empty())
                        continue;
                    watched[root] = "";
                    auto bind = gangBind.find(root);
                    if (bind != gangBind.end())
                        watched[bind->second] = root;
                } else {
                    // Classic loop walking a gang-lookup scratch.
                    for (int j = loop.headOpen + 1; j < loop.bodyEnd;
                         ++j) {
                        if (!toks[j].ident() || j + 1 >= loop.bodyEnd ||
                            !toks[j + 1].is("["))
                            continue;
                        const std::string root =
                            resolveRoot(fn, toks[j].text, false);
                        auto bind = gangBind.find(root);
                        if (bind != gangBind.end())
                            watched[bind->second] = root;
                    }
                }
                if (watched.empty())
                    continue;

                const int lo = loop.bodyBegin, hi = loop.bodyEnd;

                for (const Mutation &m : fn.mutations) {
                    if (m.tok <= lo || m.tok >= hi ||
                        inAnyRange(nested, m.tok))
                        continue;
                    auto w = watched.find(m.root);
                    if (w == watched.end())
                        continue;
                    findings.push_back(
                        {"iterator-invalidation", file.path, m.line,
                         w->second.empty()
                             ? "'" + m.root + "." + m.method +
                                   "()' mutates the container this "
                                   "range-for is iterating; collect "
                                   "first, mutate after the loop"
                             : "'" + m.root + "." + m.method +
                                   "()' invalidates the pointers the "
                                   "gang walk stored in '" +
                                   w->second + "'; finish the walk "
                                   "before mutating"});
                }

                auto node = nodeOf.find(&fn);
                if (node == nodeOf.end())
                    continue;  // non-src: no call graph
                for (const CallSite &call : fn.calls) {
                    if (call.tok <= lo || call.tok >= hi ||
                        inAnyRange(nested, call.tok))
                        continue;
                    for (const auto &[root, via] : watched) {
                        if (!ctx.graph.callMutates(node->second, call,
                                                   root))
                            continue;
                        findings.push_back(
                            {"iterator-invalidation", file.path,
                             call.line,
                             "'" + call.callee +
                                 "' can reach a mutator of '" + root +
                                 "' (" +
                                 ctx.graph.witness(node->second, call,
                                                   root) +
                                 ") while this loop iterates " +
                                 (via.empty()
                                      ? "it"
                                      : "pointers into it (via '" +
                                            via + "')") +
                                 "; collect first, mutate after the "
                                 "loop"});
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: determinism-taint

bool
taintScope(const SourceFile &file)
{
    if (file.path.compare(0, 4, "src/") == 0)
        return file.dir != "src/base";  // base owns ordering machinery
    return file.path.compare(0, 6, "bench/") == 0 ||
           file.path.compare(0, 6, "tests/") == 0;
}

/** Names of unordered_map/unordered_set variables, project-wide. */
std::set<std::string>
collectUnordered(const Context &ctx)
{
    std::set<std::string> names;
    for (const SourceFile &file : ctx.files) {
        const Tokens &toks = file.tokens;
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!toks[i].ident() ||
                (toks[i].text != "unordered_map" &&
                 toks[i].text != "unordered_set") ||
                !toks[i + 1].is("<"))
                continue;
            const int j = matchFwd(toks, static_cast<int>(i) + 1, "<",
                                   ">") + 1;
            if (j < static_cast<int>(toks.size()) && toks[j].ident())
                names.insert(toks[j].text);
        }
    }
    return names;
}

/**
 * Intra-function taint pass. Sources: range-for over an unordered
 * container (without sortedSnapshot) taints the loop's declared
 * names; `x = u.begin()` taints x. `=` propagates taint; compound
 * assignments (`+=` etc., which lex as op + '=') do not — they are
 * order-independent reductions. Returns whether the function can
 * return a tainted value; when @p report is set, sink flows are
 * appended as findings.
 */
bool
analyzeTaint(const SourceFile &file, const FunctionDef &fn,
             const std::set<std::string> &unordered,
             const std::set<std::string> &taintedFns,
             std::vector<Finding> *report)
{
    const Tokens &toks = file.tokens;
    const int hi = fn.bodyEnd;
    std::set<std::string> tainted;
    bool returnsTainted = false;

    auto spanTainted = [&](int from, int to) {
        for (int j = from; j < to; ++j)
            if (toks[j].ident() && toks[j].text == "sortedSnapshot")
                return false;  // laundered
        for (int j = from; j < to; ++j) {
            if (!toks[j].ident())
                continue;
            const std::string &t = toks[j].text;
            if (tainted.count(t))
                return true;
            if (taintedFns.count(t) && j + 1 < to && toks[j + 1].is("("))
                return true;
            if (unordered.count(t) && j + 2 < to &&
                (toks[j + 1].is(".") || toks[j + 1].is("->")) &&
                (toks[j + 2].text == "begin" ||
                 toks[j + 2].text == "cbegin"))
                return true;
        }
        return false;
    };

    auto stmtEnd = [&](int from) {
        int d = 0;
        int j = from;
        for (; j < hi; ++j) {
            if (toks[j].is("(") || toks[j].is("[") || toks[j].is("{"))
                ++d;
            else if (toks[j].is(")") || toks[j].is("]") ||
                     toks[j].is("}"))
                --d;
            else if (toks[j].is(";") && d == 0)
                break;
        }
        return j;
    };

    const bool benchLike =
        file.path.compare(0, 6, "bench/") == 0 ||
        file.path.compare(0, 6, "tests/") == 0;

    for (int i = fn.bodyBegin + 1; i < hi; ++i) {
        const Token &t = toks[i];
        if (!t.ident())
            continue;

        // Source: range-for over an unordered container.
        if (t.text == "for" && i + 1 < hi && toks[i + 1].is("(")) {
            const int headClose = matchFwd(toks, i + 1, "(", ")");
            int depth = 0;
            int colon = -1;
            for (int j = i + 1; j < headClose; ++j) {
                if (toks[j].is("(") || toks[j].is("[") || toks[j].is("{"))
                    ++depth;
                else if (toks[j].is(")") || toks[j].is("]") ||
                         toks[j].is("}"))
                    --depth;
                else if (toks[j].is(":") && depth == 1) {
                    colon = j;
                    break;
                } else if (toks[j].is(";") && depth == 1) {
                    break;
                }
            }
            if (colon >= 0) {
                bool source = false, snapshot = false;
                for (int j = colon + 1; j < headClose; ++j) {
                    if (!toks[j].ident())
                        continue;
                    if (toks[j].text == "sortedSnapshot")
                        snapshot = true;
                    else if (unordered.count(toks[j].text))
                        source = true;
                }
                if (source && !snapshot) {
                    for (int j = i + 2; j < colon; ++j) {
                        if (toks[j].ident() && toks[j].text != "auto" &&
                            toks[j].text != "const")
                            tainted.insert(toks[j].text);
                    }
                }
            }
            continue;
        }

        // Sink: a policy decision (any tainted return in src/policy);
        // also feeds the interprocedural tainted-return fixpoint.
        if (t.text == "return") {
            const int end = stmtEnd(i + 1);
            if (spanTainted(i + 1, end)) {
                returnsTainted = true;
                if (report && file.dir == "src/policy") {
                    report->push_back(
                        {"determinism-taint", file.path, t.line,
                         fn.displayName() +
                             " returns a value that depends on "
                             "unordered-container iteration order — a "
                             "nondeterministic policy decision; "
                             "iterate a sortedSnapshot() instead"});
                }
            }
            i = end;
            continue;
        }

        // Sink: trace emission.
        if (report && t.text == "emit" && i + 4 < hi &&
            toks[i + 1].is("(") && toks[i + 2].text == "TraceEventType") {
            const int close = matchFwd(toks, i + 1, "(", ")");
            if (spanTainted(i + 2, close)) {
                report->push_back(
                    {"determinism-taint", file.path, t.line,
                     "emit(TraceEventType::" + toks[i + 4].text +
                         ") payload depends on unordered-container "
                         "iteration order; trace output must be "
                         "deterministic — use sortedSnapshot()"});
            }
            i = close;
            continue;
        }

        // Sink: BENCH metric (JsonReport::add in bench/tests).
        if (report && benchLike && t.text == "add" && i > 0 &&
            (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
            i + 1 < hi && toks[i + 1].is("(")) {
            const int close = matchFwd(toks, i + 1, "(", ")");
            if (spanTainted(i + 1, close)) {
                report->push_back(
                    {"determinism-taint", file.path, t.line,
                     "report metric depends on unordered-container "
                     "iteration order; BENCH output must be "
                     "deterministic — use sortedSnapshot()"});
            }
            i = close;
            continue;
        }

        // Propagation: plain assignment. `==` lexes as two '='
        // tokens; compound ops lex as op + '=' and never match here,
        // which is the deliberate commutative-reduction exemption.
        if (i + 1 < hi && toks[i + 1].is("=") &&
            !(i + 2 < hi && toks[i + 2].is("="))) {
            const int end = stmtEnd(i + 2);
            if (spanTainted(i + 2, end))
                tainted.insert(t.text);
            else
                tainted.erase(t.text);
            i = end;
        }
    }
    return returnsTainted;
}

void
ruleDeterminismTaint(const Context &ctx, std::vector<Finding> &findings)
{
    const std::set<std::string> unordered = collectUnordered(ctx);
    if (unordered.empty())
        return;

    // Fixpoint on functions whose return value carries taint, so
    // `victim = pickNoisy()` taints the caller too. Resolution is by
    // unqualified name, matching the call graph's over-approximation.
    std::set<std::string> taintedFns;
    for (int round = 0; round < 4; ++round) {
        bool changed = false;
        for (size_t f = 0; f < ctx.files.size(); ++f) {
            if (!taintScope(ctx.files[f]))
                continue;
            for (const FunctionDef &fn : ctx.indexes[f].functions) {
                if (isNestedDef(ctx.indexes[f], fn))
                    continue;
                if (!analyzeTaint(ctx.files[f], fn, unordered,
                                  taintedFns, nullptr))
                    continue;
                if (!fn.isLambda &&
                    taintedFns.insert(fn.name).second)
                    changed = true;
            }
        }
        if (!changed)
            break;
    }

    for (size_t f = 0; f < ctx.files.size(); ++f) {
        if (!taintScope(ctx.files[f]))
            continue;
        for (const FunctionDef &fn : ctx.indexes[f].functions) {
            if (isNestedDef(ctx.indexes[f], fn))
                continue;
            analyzeTaint(ctx.files[f], fn, unordered, taintedFns,
                         &findings);
        }
    }
}

} // namespace

// The catalogue in rules.cc references these by name.
void
ruleReentrancyHazardEntry(const Context &ctx,
                          std::vector<Finding> &findings)
{
    ruleReentrancyHazard(ctx, findings);
}

void
ruleIteratorInvalidationEntry(const Context &ctx,
                              std::vector<Finding> &findings)
{
    ruleIteratorInvalidation(ctx, findings);
}

void
ruleDeterminismTaintEntry(const Context &ctx,
                          std::vector<Finding> &findings)
{
    ruleDeterminismTaint(ctx, findings);
}

} // namespace klint
