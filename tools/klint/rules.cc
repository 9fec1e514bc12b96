/**
 * @file
 * The klint rule implementations. Each rule is a pure function over
 * the lexed repo (Context) appending Findings; docs/ANALYSIS.md is
 * the human-readable catalogue and must be kept in sync.
 */

#include "tools/klint/klint.hh"

#include <algorithm>
#include <set>

namespace klint {

namespace {

using Tokens = std::vector<Token>;

bool
underSrc(const SourceFile &file)
{
    return file.path.compare(0, 4, "src/") == 0;
}

/** Code that runs inside (or drives) RunPool runs: the simulator
 *  itself, the benches, and the test suite. */
bool
underRunScope(const SourceFile &file)
{
    return underSrc(file) || file.path.compare(0, 6, "bench/") == 0 ||
           file.path.compare(0, 6, "tests/") == 0;
}

/** Index just past the bracket that matches tokens[i] (an opener). */
size_t
skipBalanced(const Tokens &toks, size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (toks[i].is(open))
            ++depth;
        else if (toks[i].is(close) && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

// ---------------------------------------------------------------------------
// Rule: determinism
//
// (a) No iteration (range-for or .begin()) over unordered_map /
//     unordered_set in simulation code — hash order is not part of
//     the simulated state, so any loop over it can silently change
//     trace output or simulation order between standard libraries.
//     The sanctioned escape is base/ordered.hh's sortedSnapshot().
// (b) No libc randomness or wall-clock time outside src/base: all
//     randomness flows through base/rng.hh, all time through the
//     simulated clock.

void
collectUnorderedNames(const Context &ctx, std::set<std::string> &names)
{
    for (const SourceFile &file : ctx.files) {
        if (!underSrc(file))
            continue;
        const Tokens &toks = file.tokens;
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (!toks[i].ident() ||
                (toks[i].text != "unordered_map" &&
                 toks[i].text != "unordered_set"))
                continue;
            if (!toks[i + 1].is("<"))
                continue;
            size_t j = skipBalanced(toks, i + 1, "<", ">");
            if (j < toks.size() && toks[j].ident())
                names.insert(toks[j].text);
        }
    }
}

void
ruleDeterminism(const Context &ctx, std::vector<Finding> &findings)
{
    std::set<std::string> unordered;
    collectUnorderedNames(ctx, unordered);

    static const std::set<std::string> kBannedIdents = {
        "rand", "srand", "drand48", "random_device", "system_clock",
    };

    for (const SourceFile &file : ctx.files) {
        if (!underSrc(file) || file.dir == "src/base")
            continue;
        const Tokens &toks = file.tokens;

        for (size_t i = 0; i < toks.size(); ++i) {
            // Range-for over an unordered container.
            if (toks[i].ident() && toks[i].text == "for" &&
                i + 1 < toks.size() && toks[i + 1].is("(")) {
                const size_t end = skipBalanced(toks, i + 1, "(", ")");
                // Locate the range-for ':' at paren depth 1.
                int depth = 0;
                size_t colon = 0;
                for (size_t j = i + 1; j < end; ++j) {
                    if (toks[j].is("(") || toks[j].is("[") ||
                        toks[j].is("{"))
                        ++depth;
                    else if (toks[j].is(")") || toks[j].is("]") ||
                             toks[j].is("}"))
                        --depth;
                    else if (toks[j].is(":") && depth == 1) {
                        colon = j;
                        break;
                    } else if (toks[j].is(";") && depth == 1) {
                        break;  // classic for-loop
                    }
                }
                if (colon != 0) {
                    bool snapshot = false;
                    std::string culprit;
                    for (size_t j = colon + 1; j + 1 < end; ++j) {
                        if (!toks[j].ident())
                            continue;
                        if (toks[j].text == "sortedSnapshot")
                            snapshot = true;
                        else if (unordered.count(toks[j].text))
                            culprit = toks[j].text;
                    }
                    if (!snapshot && !culprit.empty()) {
                        findings.push_back(
                            {"determinism", file.path, toks[i].line,
                             "iteration over unordered container '" +
                                 culprit +
                                 "' — hash order is nondeterministic; "
                                 "use sortedSnapshot() "
                                 "(base/ordered.hh)"});
                    }
                }
            }

            // .begin()/.cbegin() on an unordered container.
            if (i + 2 < toks.size() && toks[i].ident() &&
                unordered.count(toks[i].text) &&
                (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
                (toks[i + 2].text == "begin" ||
                 toks[i + 2].text == "cbegin")) {
                findings.push_back(
                    {"determinism", file.path, toks[i].line,
                     "'" + toks[i].text +
                         "." + toks[i + 2].text +
                         "()' iterates an unordered container in hash "
                         "order; use sortedSnapshot() (base/ordered.hh)"});
            }

            // Banned randomness / wall-clock identifiers.
            if (toks[i].ident() && kBannedIdents.count(toks[i].text)) {
                findings.push_back(
                    {"determinism", file.path, toks[i].line,
                     "'" + toks[i].text +
                         "' is nondeterministic; use base/rng.hh or the "
                         "simulated clock"});
            }
            // time(...) — but not member calls or qualified names
            // other than std::time.
            if (toks[i].ident() && toks[i].text == "time" &&
                i + 1 < toks.size() && toks[i + 1].is("(")) {
                const bool member =
                    i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));
                const bool qualifiedNonStd =
                    i > 1 && toks[i - 1].is("::") &&
                    toks[i - 2].text != "std";
                if (!member && !qualifiedNonStd) {
                    findings.push_back(
                        {"determinism", file.path, toks[i].line,
                         "'time()' reads the wall clock; use the "
                         "simulated clock"});
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: checker-coverage
//
// Every TraceEventType enumerator must appear in a `case` of the
// InvariantChecker's dispatch in src/trace/invariants.cc, so new
// trace events cannot silently bypass invariant checking. Events
// that are intentionally not checked go on the allowlist below with
// a justification.

/**
 * Enumerators (name, line) of `enum class @p enum_name` declared in
 * @p path, in declaration order. Empty when the file or enum is
 * absent.
 */
std::vector<std::pair<std::string, int>>
parseEnumerators(const Context &ctx, const std::string &path,
                 const std::string &enum_name)
{
    std::vector<std::pair<std::string, int>> out;
    const SourceFile *file = ctx.find(path);
    if (!file)
        return out;
    const Tokens &toks = file->tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!(toks[i].is("enum") && toks[i + 1].is("class") &&
              toks[i + 2].text == enum_name))
            continue;
        size_t j = i + 3;
        while (j < toks.size() && !toks[j].is("{"))
            ++j;
        bool expectName = true;
        for (++j; j < toks.size() && !toks[j].is("}"); ++j) {
            if (toks[j].is(",")) {
                expectName = true;
            } else if (expectName && toks[j].ident()) {
                out.emplace_back(toks[j].text, toks[j].line);
                expectName = false;
            }
        }
        break;
    }
    return out;
}

/** Enumerators (name, line) of TraceEventType, in declaration order. */
std::vector<std::pair<std::string, int>>
parseTraceEnum(const Context &ctx)
{
    return parseEnumerators(ctx, "src/trace/trace.hh",
                            "TraceEventType");
}

void
ruleCheckerCoverage(const Context &ctx, std::vector<Finding> &findings)
{
    const auto enumerators = parseTraceEnum(ctx);
    if (enumerators.empty())
        return;

    const SourceFile *inv = ctx.find("src/trace/invariants.cc");
    if (!inv)
        return;

    // Enumerators intentionally not checked, with justification.
    static const std::set<std::string> kAllowedUnchecked = {
        // (none today — extend with a reason when an event is
        // deliberately outside the checker's model)
    };

    std::set<std::string> handled;
    const Tokens &toks = inv->tokens;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].is("case") && toks[i + 1].text == "TraceEventType" &&
            toks[i + 2].is("::") && toks[i + 3].ident())
            handled.insert(toks[i + 3].text);
    }

    for (const auto &[name, line] : enumerators) {
        if (name == "NumTypes" || handled.count(name) ||
            kAllowedUnchecked.count(name))
            continue;
        findings.push_back(
            {"checker-coverage", "src/trace/trace.hh", line,
             "TraceEventType::" + name +
                 " has no case in InvariantChecker "
                 "(src/trace/invariants.cc) and is not allowlisted"});
    }
}

// ---------------------------------------------------------------------------
// Rule: fault-site-coverage
//
// Every FaultSite enumerator must be (a) consulted somewhere in the
// simulator — the name appears at a call site outside src/fault and
// outside the checker — and (b) validated by the InvariantChecker —
// a `case FaultSite::X` in src/trace/invariants.cc's FaultInject
// dispatch. A site that is declared but never consulted is dead
// grammar (specs naming it silently do nothing); a site the checker
// does not know about lets faulted runs emit FaultInject events the
// invariant model never sanity-checks.

void
ruleFaultSiteCoverage(const Context &ctx, std::vector<Finding> &findings)
{
    const auto enumerators =
        parseEnumerators(ctx, "src/fault/fault.hh", "FaultSite");
    if (enumerators.empty())
        return;

    // Consult side: any `FaultSite :: Name` outside the declaring
    // header and the checker. Matching the bare qualified name (not
    // just shouldFire(FaultSite::X)) deliberately accepts indirect
    // consults — e.g. `write ? FaultSite::DeviceWrite : ...` feeding
    // a shouldFire(site) call.
    std::set<std::string> consulted;
    for (const SourceFile &file : ctx.files) {
        if (!underSrc(file) || file.dir == "src/fault" ||
            file.path == "src/trace/invariants.cc")
            continue;
        const Tokens &toks = file.tokens;
        for (size_t i = 0; i + 2 < toks.size(); ++i) {
            if (toks[i].text == "FaultSite" && toks[i + 1].is("::") &&
                toks[i + 2].ident())
                consulted.insert(toks[i + 2].text);
        }
    }

    // Checker side: `case FaultSite :: Name` in invariants.cc.
    std::set<std::string> checked;
    if (const SourceFile *inv = ctx.find("src/trace/invariants.cc")) {
        const Tokens &toks = inv->tokens;
        for (size_t i = 0; i + 3 < toks.size(); ++i) {
            if (toks[i].is("case") && toks[i + 1].text == "FaultSite" &&
                toks[i + 2].is("::") && toks[i + 3].ident())
                checked.insert(toks[i + 3].text);
        }
    }

    for (const auto &[name, line] : enumerators) {
        if (name == "NumSites")
            continue;
        if (!consulted.count(name)) {
            findings.push_back(
                {"fault-site-coverage", "src/fault/fault.hh", line,
                 "FaultSite::" + name +
                     " is never consulted (no use outside src/fault "
                     "and the checker) — dead fault grammar"});
        }
        if (!checked.count(name)) {
            findings.push_back(
                {"fault-site-coverage", "src/fault/fault.hh", line,
                 "FaultSite::" + name +
                     " has no case in the InvariantChecker's "
                     "FaultInject dispatch (src/trace/invariants.cc)"});
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: layering
//
// #includes must respect the subsystem DAG (see docs/ANALYSIS.md):
//
//   base < {trace, fault} < sim < {mem, alloc} < kobj < core
//        < {fs, net} < {policy, platform, workload} < tools
//
// A file may include headers of its own layer or lower layers only;
// an upward include inverts the dependency graph.

const std::map<std::string, int> &
layerRanks()
{
    static const std::map<std::string, int> kRanks = {
        {"src/base", 0},
        {"src/trace", 1}, {"src/fault", 1},
        {"src/sim", 2},
        {"src/mem", 3}, {"src/alloc", 3},
        {"src/kobj", 4},
        {"src/core", 5},
        {"src/fs", 6}, {"src/net", 6},
        {"src/policy", 7}, {"src/platform", 7}, {"src/workload", 7},
        {"tools", 8},
    };
    return kRanks;
}

void
ruleLayering(const Context &ctx, std::vector<Finding> &findings)
{
    const auto &ranks = layerRanks();
    for (const SourceFile &file : ctx.files) {
        auto mine = ranks.find(file.dir);
        if (mine == ranks.end())
            continue;
        for (const Include &inc : file.includes) {
            if (inc.angled)
                continue;
            // Project includes are rooted at src/ ("mem/frame.hh")
            // except tools', which are repo-rooted.
            std::string dir = inc.target.substr(0, inc.target.find('/'));
            auto theirs = ranks.find(
                dir == "tools" ? "tools" : "src/" + dir);
            if (theirs == ranks.end())
                continue;
            if (theirs->second > mine->second) {
                findings.push_back(
                    {"layering", file.path, inc.line,
                     file.dir + " (layer " +
                         std::to_string(mine->second) +
                         ") must not include " + inc.target +
                         " (layer " + std::to_string(theirs->second) +
                         ") — upward dependency"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: units
//
// Public APIs in mem/, fs/ and alloc/ headers must not take raw
// uint64_t/int64_t parameters where a strong unit exists
// (Tick/Bytes/Pfn/TierId/FrameCount, base/units.hh). Identity-like
// values that have no unit (inode numbers, sectors, keys, indices,
// seeds, transaction ids, generation counters) are recognised by
// parameter-name suffix and stay raw.

bool
unitAllowlisted(const std::string &name)
{
    static const std::vector<std::string> kSuffixes = {
        "id", "ino", "sector", "key", "seed", "index", "tx",
        "generation", "cpu", "socket",
    };
    for (const std::string &suffix : kSuffixes) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            return true;
    }
    return false;
}

void
ruleUnits(const Context &ctx, std::vector<Finding> &findings)
{
    static const std::set<std::string> kScopedDirs = {
        "src/mem", "src/fs", "src/alloc",
    };

    for (const SourceFile &file : ctx.files) {
        if (!file.header || !kScopedDirs.count(file.dir))
            continue;
        const Tokens &toks = file.tokens;

        // Scope tracking: struct members/params default public,
        // class ones private; tokens inside function bodies (plain
        // blocks) are skipped.
        enum class FrameType { Class, Struct, Namespace, Enum, Block };
        struct ScopeFrame { FrameType type; bool publicAccess; };
        std::vector<ScopeFrame> scopes;
        bool pendingValid = false;
        ScopeFrame pending{FrameType::Block, true};
        int parenDepth = 0;

        auto innermostRecord = [&]() -> const ScopeFrame * {
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
                if (it->type == FrameType::Class ||
                    it->type == FrameType::Struct)
                    return &*it;
                if (it->type == FrameType::Block)
                    return nullptr;  // inside a function body
            }
            return nullptr;
        };

        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &tok = toks[i];

            if (tok.ident() && tok.text == "template" &&
                i + 1 < toks.size() && toks[i + 1].is("<")) {
                i = skipBalanced(toks, i + 1, "<", ">") - 1;
                continue;
            }
            if (tok.ident() &&
                (tok.text == "class" || tok.text == "struct") &&
                !(i > 0 && toks[i - 1].is("enum"))) {
                pendingValid = true;
                pending = {tok.text == "class" ? FrameType::Class
                                               : FrameType::Struct,
                           tok.text == "struct"};
                continue;
            }
            if (tok.ident() && tok.text == "namespace") {
                pendingValid = true;
                pending = {FrameType::Namespace, true};
                continue;
            }
            if (tok.ident() && tok.text == "enum") {
                pendingValid = true;
                pending = {FrameType::Enum, true};
                continue;
            }
            if (tok.is(";") && parenDepth == 0) {
                pendingValid = false;  // forward declaration
                continue;
            }
            if (tok.is("{")) {
                scopes.push_back(pendingValid
                                     ? pending
                                     : ScopeFrame{FrameType::Block, true});
                pendingValid = false;
                continue;
            }
            if (tok.is("}")) {
                if (!scopes.empty())
                    scopes.pop_back();
                continue;
            }
            if (tok.is("("))
                ++parenDepth;
            else if (tok.is(")"))
                parenDepth = parenDepth > 0 ? parenDepth - 1 : 0;

            if (tok.ident() &&
                (tok.text == "uint64_t" || tok.text == "int64_t") &&
                parenDepth >= 1) {
                // Parameter position: next token is the name.
                if (i + 1 >= toks.size() || !toks[i + 1].ident())
                    continue;
                // Not inside a function body (inline for-loops etc.).
                const ScopeFrame *record = innermostRecord();
                if (!scopes.empty() &&
                    scopes.back().type == FrameType::Block)
                    continue;
                // Private members' params are an implementation
                // detail; the rule polices the public surface.
                if (record && !record->publicAccess)
                    continue;
                // Exclude classic for(...;...;...) heads: a param
                // list never contains ';' before its ')'.
                bool isLoopHead = false;
                int depth = 1;
                for (size_t j = i + 1; j < toks.size() && depth > 0; ++j) {
                    if (toks[j].is("("))
                        ++depth;
                    else if (toks[j].is(")"))
                        --depth;
                    else if (toks[j].is(";") && depth == 1) {
                        isLoopHead = true;
                        break;
                    }
                }
                if (isLoopHead)
                    continue;
                const std::string &name = toks[i + 1].text;
                if (unitAllowlisted(name))
                    continue;
                findings.push_back(
                    {"units", file.path, tok.line,
                     "raw " + tok.text + " parameter '" + name +
                         "' in a public " + file.dir +
                         " API; use a strong unit from base/units.hh "
                         "(Tick/Bytes/Pfn/TierId/FrameCount) or an "
                         "allowlisted identity name"});
            }

            if (tok.ident() &&
                (tok.text == "public" || tok.text == "private" ||
                 tok.text == "protected") &&
                i + 1 < toks.size() && toks[i + 1].is(":") &&
                !scopes.empty() &&
                (scopes.back().type == FrameType::Class ||
                 scopes.back().type == FrameType::Struct)) {
                scopes.back().publicAccess = tok.text == "public";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: trace-args
//
// Every Tracer::emit(TraceEventType::X, ...) call site must pass
// exactly the number of payload arguments that X's EventSpec in
// src/trace/trace.cc declares. Fewer args silently records zeros
// under named columns; more args is a spec drift.

void
ruleTraceArgs(const Context &ctx, std::vector<Finding> &findings)
{
    const auto enumerators = parseTraceEnum(ctx);
    const SourceFile *tcc = ctx.find("src/trace/trace.cc");
    if (enumerators.empty() || !tcc)
        return;

    // argCounts in kEventSpecs order (== enum order).
    std::vector<unsigned> counts;
    const Tokens &toks = tcc->tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!(toks[i].ident() && toks[i].text == "kEventSpecs"))
            continue;
        size_t j = i;
        while (j < toks.size() && !toks[j].is("{"))
            ++j;
        const size_t end = skipBalanced(toks, j, "{", "}");
        int depth = 0;
        bool wantCount = false;
        for (; j < end; ++j) {
            if (toks[j].is("{")) {
                ++depth;
                if (depth == 2)
                    wantCount = true;  // entry opened; count follows name
            } else if (toks[j].is("}")) {
                --depth;
            } else if (wantCount && depth == 2 &&
                       toks[j].kind == Token::Kind::Number) {
                counts.push_back(
                    static_cast<unsigned>(std::stoul(toks[j].text)));
                wantCount = false;
            }
        }
        break;
    }

    std::map<std::string, unsigned> spec;
    for (size_t i = 0; i < enumerators.size() && i < counts.size(); ++i)
        spec[enumerators[i].first] = counts[i];

    for (const SourceFile &file : ctx.files) {
        if (!underSrc(file))
            continue;
        const Tokens &ts = file.tokens;
        for (size_t i = 0; i + 5 < ts.size(); ++i) {
            if (!(ts[i].ident() && ts[i].text == "emit" &&
                  ts[i + 1].is("(") && ts[i + 2].text == "TraceEventType" &&
                  ts[i + 3].is("::") && ts[i + 4].ident()))
                continue;
            const std::string &event = ts[i + 4].text;
            auto it = spec.find(event);
            if (it == spec.end())
                continue;
            const size_t end = skipBalanced(ts, i + 1, "(", ")");
            unsigned commas = 0;
            int depth = 0;
            for (size_t j = i + 1; j < end; ++j) {
                if (ts[j].is("(") || ts[j].is("{") || ts[j].is("["))
                    ++depth;
                else if (ts[j].is(")") || ts[j].is("}") || ts[j].is("]"))
                    --depth;
                else if (ts[j].is(",") && depth == 1)
                    ++commas;
            }
            if (commas != it->second) {
                findings.push_back(
                    {"trace-args", file.path, ts[i].line,
                     "emit(TraceEventType::" + event + ") passes " +
                         std::to_string(commas) + " args but the "
                         "EventSpec declares " +
                         std::to_string(it->second)});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc
//
// A function body that emits trace events is a per-event hot path:
// frame alloc/free, LRU transitions, and migration loops run for
// every simulated page operation. An explicit heap allocation there
// (`new`, `std::make_unique`, `std::make_shared`) is per-event
// churn that the arena/scratch-reuse design removed; steady-state
// hot paths must reuse memory. Deliberate amortised growth (e.g. an
// arena appending a chunk) is suppressed with a justification
// comment of the form `klint:allow(hot-path-alloc): <why>`.

void
ruleHotPathAlloc(const Context &ctx, std::vector<Finding> &findings)
{
    for (const SourceFile &file : ctx.files) {
        if (!underSrc(file))
            continue;
        const Tokens &toks = file.tokens;

        // One frame per open '{'. Function-body frames collect
        // allocations and emit sightings; plain blocks (if/for/
        // namespace/class bodies) forward both to their parent so
        // an emit in one branch pairs with an allocation in another
        // branch of the same function.
        struct BodyFrame
        {
            bool function = false;
            bool emits = false;
            std::vector<size_t> allocs;  ///< token indices
        };
        std::vector<BodyFrame> stack;

        auto isFunctionOpen = [&](size_t open) {
            size_t j = open;
            while (j > 0 && toks[j - 1].ident() &&
                   (toks[j - 1].text == "const" ||
                    toks[j - 1].text == "noexcept" ||
                    toks[j - 1].text == "override" ||
                    toks[j - 1].text == "final" ||
                    toks[j - 1].text == "mutable")) {
                --j;
            }
            if (j == 0 || !toks[j - 1].is(")"))
                return false;
            // Find the matching '(' and make sure this is not a
            // control-flow head (if/for/while/switch/catch).
            int depth = 0;
            size_t k = j - 1;
            while (true) {
                if (toks[k].is(")"))
                    ++depth;
                else if (toks[k].is("(") && --depth == 0)
                    break;
                if (k == 0)
                    return false;
                --k;
            }
            if (k == 0)
                return true;
            const Token &head = toks[k - 1];
            return !(head.ident() &&
                     (head.text == "if" || head.text == "for" ||
                      head.text == "while" || head.text == "switch" ||
                      head.text == "catch"));
        };

        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &tok = toks[i];
            if (tok.is("{")) {
                BodyFrame frame;
                frame.function = isFunctionOpen(i);
                stack.push_back(std::move(frame));
                continue;
            }
            if (tok.is("}")) {
                if (stack.empty())
                    continue;
                BodyFrame frame = std::move(stack.back());
                stack.pop_back();
                if (frame.function) {
                    if (frame.emits) {
                        for (const size_t alloc : frame.allocs) {
                            findings.push_back(
                                {"hot-path-alloc", file.path,
                                 toks[alloc].line,
                                 "heap allocation ('" +
                                     toks[alloc].text +
                                     "') in a trace-emitting hot "
                                     "path; reuse scratch/arena "
                                     "storage, or justify with "
                                     "klint:allow(hot-path-alloc): "
                                     "<why>"});
                        }
                    }
                } else if (!stack.empty()) {
                    BodyFrame &parent = stack.back();
                    parent.emits = parent.emits || frame.emits;
                    parent.allocs.insert(parent.allocs.end(),
                                         frame.allocs.begin(),
                                         frame.allocs.end());
                }
                continue;
            }
            if (stack.empty() || !tok.ident())
                continue;
            if (tok.text == "emit" && i + 4 < toks.size() &&
                toks[i + 1].is("(") &&
                toks[i + 2].text == "TraceEventType" &&
                toks[i + 3].is("::")) {
                stack.back().emits = true;
            } else if (tok.text == "new") {
                if (!(i > 0 && toks[i - 1].ident() &&
                      toks[i - 1].text == "operator"))
                    stack.back().allocs.push_back(i);
            } else if ((tok.text == "make_unique" ||
                        tok.text == "make_shared") &&
                       i + 1 < toks.size() &&
                       (toks[i + 1].is("<") || toks[i + 1].is("("))) {
                stack.back().allocs.push_back(i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene
//
// Headers carry a canonical KLOC_<PATH>_HH guard (#ifndef/#define
// pair); includes never use parent-relative paths.

void
ruleIncludeHygiene(const Context &ctx, std::vector<Finding> &findings)
{
    for (const SourceFile &file : ctx.files) {
        if (file.header) {
            std::string expected = file.path;
            if (expected.compare(0, 4, "src/") == 0)
                expected = expected.substr(4);
            for (char &c : expected) {
                if (c == '/' || c == '.')
                    c = '_';
                else
                    c = static_cast<char>(std::toupper(
                        static_cast<unsigned char>(c)));
            }
            expected = "KLOC_" + expected;

            if (file.guardIfndef.empty()) {
                findings.push_back({"include-hygiene", file.path, 1,
                                    "missing header guard (expected " +
                                        expected + ")"});
            } else if (file.guardIfndef != expected) {
                findings.push_back(
                    {"include-hygiene", file.path, 1,
                     "header guard " + file.guardIfndef +
                         " does not match canonical " + expected});
            } else if (file.guardDefine != file.guardIfndef) {
                findings.push_back(
                    {"include-hygiene", file.path, 1,
                     "#ifndef " + file.guardIfndef +
                         " is not followed by a matching #define"});
            }
        }
        for (const Include &inc : file.includes) {
            if (inc.target.find("../") != std::string::npos) {
                findings.push_back(
                    {"include-hygiene", file.path, inc.line,
                     "parent-relative include \"" + inc.target +
                         "\"; include repo-rooted paths instead"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: sim-owned-events
//
// The event queue takes owned nodes that cancel themselves when their
// owner dies, so src/sim needs no shared ownership: a
// std::shared_ptr or std::weak_ptr there is a liveness token that
// works around cancellation instead of using it.

void
ruleSimOwnedEvents(const Context &ctx, std::vector<Finding> &findings)
{
    for (const SourceFile &file : ctx.files) {
        if (file.dir != "src/sim")
            continue;
        const Tokens &toks = file.tokens;
        for (size_t i = 2; i < toks.size(); ++i) {
            const std::string &name = toks[i].text;
            if ((name == "shared_ptr" || name == "weak_ptr" ||
                 name == "make_shared") &&
                toks[i - 1].is("::") && toks[i - 2].text == "std") {
                findings.push_back(
                    {"sim-owned-events", file.path, toks[i].line,
                     "std::" + name + " in src/sim; own the Event "
                     "node and cancel it instead of checking a "
                     "liveness token"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-mutable-global
//
// The RunPool (base/run_pool.hh) executes simulation runs
// concurrently, and the determinism-under-parallelism contract rests
// on runs being shared-nothing: every piece of run state hangs off a
// Machine or something the run closure owns. Mutable static-storage
// data — namespace-scope variables, function-local `static`s,
// `static` data members — is shared across concurrently executing
// runs, so it is both a data race and a cross-run determinism leak
// (run N observing residue from run N-1). Const/constexpr/constinit
// data is immutable and fine. The rule covers bench/ and tests/ too:
// both drive pooled runs (bench sweeps, the fuzz harness), so a
// mutable global there leaks state across runs just the same.
//
// The only sanctioned exception is the logging singleton
// (src/base/logging.cc, atomic level, append-only sink); anything
// else needs a `klint:allow(no-mutable-global): <why>` justification.
//
// Token-level, so two pragmatic blind spots: a type whose const-ness
// lives behind a typedef is trusted if `const` appears anywhere in
// the declaration, and a declaration whose template arguments
// contain '(' (e.g. std::function signatures) reads as a function
// declaration. Neither pattern occurs at static storage in this
// repo.

bool
mutableGlobalAllowed(const SourceFile &file)
{
    static const std::set<std::string> kAllow = {
        "src/base/logging.cc",  // the Logger singleton
    };
    return kAllow.count(file.path) > 0;
}

/**
 * From toks[i] == "<", the index past the matching ">", treating the
 * run as template arguments. Returns i + 1 (no skip) if the brackets
 * do not balance before the statement ends — then '<' was a
 * comparison, not an argument list.
 */
size_t
skipTemplateArgs(const Tokens &toks, size_t i)
{
    int depth = 0;
    for (size_t j = i; j < toks.size(); ++j) {
        if (toks[j].is("<"))
            ++depth;
        else if (toks[j].is(">") && --depth == 0)
            return j + 1;
        else if (toks[j].is(";") || toks[j].is("{"))
            break;
    }
    return i + 1;
}

/**
 * Scan one declaration starting at toks[i] and decide whether it is
 * a mutable variable. Fills @p name with the declared identifier and
 * @p line with its location. Stops at the declaration's terminator:
 * ';' '=' or '{' mean a variable (flag unless const-qualified); '('
 * means a function (never flagged).
 */
bool
declarationIsMutableVariable(const Tokens &toks, size_t i,
                             std::string &name, int &line)
{
    std::string lastIdent;
    int lastLine = 0;
    for (size_t j = i; j < toks.size();) {
        const Token &tok = toks[j];
        if (tok.ident() &&
            (tok.text == "const" || tok.text == "constexpr" ||
             tok.text == "constinit")) {
            return false;
        }
        if (tok.is("(") || tok.is(")"))
            return false;  // function declarator (or macro call)
        if (tok.is(";") || tok.is("=") || tok.is("{")) {
            if (lastIdent.empty())
                return false;
            name = lastIdent;
            line = lastLine;
            return true;
        }
        if (tok.is("<")) {
            j = skipTemplateArgs(toks, j);
            continue;
        }
        if (tok.is("[")) {  // array extent: the name came before it
            j = skipBalanced(toks, j, "[", "]");
            continue;
        }
        if (tok.ident()) {
            lastIdent = tok.text;
            lastLine = tok.line;
        }
        ++j;
    }
    return false;
}

void
ruleNoMutableGlobal(const Context &ctx, std::vector<Finding> &findings)
{
    // Keywords that open a statement which is not a variable
    // declaration (or that declares a type/alias, not storage).
    static const std::set<std::string> kNotAVariable = {
        "namespace", "using",  "typedef", "template", "class",
        "struct",    "union",  "enum",    "extern",   "friend",
        "static_assert",       "if",      "for",      "while",
        "switch",    "return", "public",  "private",  "protected",
    };

    for (const SourceFile &file : ctx.files) {
        if (!underRunScope(file) || mutableGlobalAllowed(file))
            continue;
        const Tokens &toks = file.tokens;

        // Pass 1: every `static` / `thread_local` declaration,
        // regardless of scope. thread_local counts: a pool worker
        // reusing a thread across runs would leak state run-to-run.
        for (size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].ident() ||
                (toks[i].text != "static" &&
                 toks[i].text != "thread_local"))
                continue;
            std::string name;
            int line = 0;
            if (declarationIsMutableVariable(toks, i + 1, name, line)) {
                findings.push_back(
                    {"no-mutable-global", file.path, line,
                     "mutable " + toks[i].text + " variable '" + name +
                         "' is shared across concurrent RunPool runs; "
                         "hang run state off the Machine, make it "
                         "const/constexpr, or justify with "
                         "klint:allow(no-mutable-global): <why>"});
            }
        }

        // Pass 2: namespace-scope variables without `static` (still
        // static storage). Track brace scopes so only declarations at
        // namespace/global scope are considered.
        enum class Scope { Namespace, Other };
        std::vector<Scope> scopes;
        Scope pending = Scope::Other;
        bool atNamespaceScope = true;
        bool statementStart = true;
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &tok = toks[i];
            if (tok.is("{")) {
                scopes.push_back(pending);
                pending = Scope::Other;
                atNamespaceScope =
                    std::all_of(scopes.begin(), scopes.end(),
                                [](Scope s) {
                                    return s == Scope::Namespace;
                                });
                statementStart = true;
                continue;
            }
            if (tok.is("}")) {
                if (!scopes.empty())
                    scopes.pop_back();
                atNamespaceScope =
                    std::all_of(scopes.begin(), scopes.end(),
                                [](Scope s) {
                                    return s == Scope::Namespace;
                                });
                statementStart = true;
                continue;
            }
            if (tok.is(";")) {
                statementStart = true;
                // `using namespace x;` and `namespace a = b;` end
                // here without opening a brace: the pending marker
                // must not leak onto the next unrelated '{' (which
                // would score a function body as namespace scope).
                pending = Scope::Other;
                continue;
            }
            if (tok.ident() && tok.text == "namespace")
                pending = Scope::Namespace;

            if (!statementStart)
                continue;
            statementStart = false;
            if (!atNamespaceScope || !tok.ident())
                continue;
            if (kNotAVariable.count(tok.text) ||
                tok.text == "static" || tok.text == "thread_local")
                continue;  // pass 1 owns static/thread_local
            std::string name;
            int line = 0;
            if (declarationIsMutableVariable(toks, i, name, line)) {
                findings.push_back(
                    {"no-mutable-global", file.path, line,
                     "mutable namespace-scope variable '" + name +
                         "' is shared across concurrent RunPool runs; "
                         "hang run state off the Machine, make it "
                         "const/constexpr, or justify with "
                         "klint:allow(no-mutable-global): <why>"});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: suppression-format
//
// A suppression that names no rule or gives no reason defeats the
// audit trail: six months later nobody knows what was waived or why.
// The only accepted form is
//
//     klint:allow(<rule>): <rationale>
//
// with <rule> a name from the catalogue (or "all"). Anything that
// *looks* like a suppression attempt — "klint" followed by ":" and
// "allow" — but deviates from that form is flagged and, critically,
// suppresses nothing (see suppressionCovers in klint.cc). Rule-name
// placeholders in documentation (`allow(<rule>)`) are ignored.

void
ruleSuppressionFormat(const Context &ctx, std::vector<Finding> &findings)
{
    std::set<std::string> known = {"all"};
    for (const Rule &rule : ruleCatalogue())
        known.insert(rule.name);

    for (const SourceFile &file : ctx.files) {
        for (const auto &[line, comment] : file.comments) {
            size_t pos = 0;
            while ((pos = comment.find("klint", pos)) !=
                   std::string::npos) {
                size_t p = pos + 5;
                pos += 5;
                while (p < comment.size() && comment[p] == ' ')
                    ++p;
                if (p >= comment.size() || comment[p] != ':')
                    continue;  // prose mention, not a suppression
                ++p;
                while (p < comment.size() && comment[p] == ' ')
                    ++p;
                if (comment.compare(p, 5, "allow") != 0)
                    continue;
                p += 5;
                // From here on this is a suppression attempt; it
                // must parse as allow(<known-rule>): <rationale>.
                std::string name;
                if (p < comment.size() && comment[p] == '(') {
                    const size_t close = comment.find(')', p);
                    if (close != std::string::npos) {
                        name = comment.substr(p + 1, close - p - 1);
                        p = close + 1;
                    }
                }
                if (name.find('<') != std::string::npos)
                    continue;  // documentation placeholder
                if (name.empty()) {
                    findings.push_back(
                        {"suppression-format", file.path, line,
                         "suppression names no rule; use "
                         "klint:allow(<rule>): <rationale>"});
                    continue;
                }
                if (!known.count(name)) {
                    findings.push_back(
                        {"suppression-format", file.path, line,
                         "suppression names unknown rule '" + name +
                             "'; see klint --list-rules"});
                    continue;
                }
                if (!suppressionCovers(comment, name)) {
                    findings.push_back(
                        {"suppression-format", file.path, line,
                         "suppression of '" + name +
                             "' lacks a rationale and is ignored; use "
                         "klint:allow(" + name + "): <rationale>"});
                }
            }
        }
    }
}

} // namespace

// Interprocedural rules, implemented over the symbol index and call
// graph in rules_graph.cc.
void ruleReentrancyHazardEntry(const Context &, std::vector<Finding> &);
void ruleIteratorInvalidationEntry(const Context &,
                                   std::vector<Finding> &);
void ruleDeterminismTaintEntry(const Context &, std::vector<Finding> &);

const std::vector<Rule> &
ruleCatalogue()
{
    static const std::vector<Rule> kRules = {
        {"determinism",
         "no unordered iteration / wall-clock / libc randomness in "
         "simulation code",
         ruleDeterminism},
        {"determinism-taint",
         "unordered-iteration-order values stay out of traces, "
         "policy decisions and BENCH metrics",
         ruleDeterminismTaintEntry},
        {"reentrancy-hazard",
         "no index into a container held across a call reaching a "
         "mutator of it",
         ruleReentrancyHazardEntry},
        {"iterator-invalidation",
         "no mutation of a container during a range-for or gang "
         "walk over it",
         ruleIteratorInvalidationEntry},
        {"checker-coverage",
         "every TraceEventType is handled by the InvariantChecker",
         ruleCheckerCoverage},
        {"fault-site-coverage",
         "every FaultSite is consulted in the simulator and checked "
         "by the InvariantChecker",
         ruleFaultSiteCoverage},
        {"layering",
         "#includes respect the subsystem DAG",
         ruleLayering},
        {"units",
         "public mem/fs/alloc APIs use strong units, not raw 64-bit ints",
         ruleUnits},
        {"trace-args",
         "emit() argument counts match the event specs",
         ruleTraceArgs},
        {"hot-path-alloc",
         "no per-event heap allocation in trace-emitting hot paths",
         ruleHotPathAlloc},
        {"include-hygiene",
         "canonical header guards; no parent-relative includes",
         ruleIncludeHygiene},
        {"sim-owned-events",
         "no std::shared_ptr/std::weak_ptr under src/sim",
         ruleSimOwnedEvents},
        {"no-mutable-global",
         "no mutable static-storage state shared across RunPool runs",
         ruleNoMutableGlobal},
        {"suppression-format",
         "suppression comments carry a rule name and a rationale",
         ruleSuppressionFormat},
    };
    return kRules;
}

} // namespace klint
