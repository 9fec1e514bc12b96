#include "tools/klint/indexer.hh"

#include <algorithm>
#include <cctype>
#include <set>

namespace klint {

namespace {

using Tokens = std::vector<Token>;

/** Index of the '(' matching toks[close] (a ')'), or -1. */
int
matchBack(const Tokens &toks, int close, const char *open,
          const char *closer)
{
    int depth = 0;
    for (int j = close; j >= 0; --j) {
        if (toks[j].is(closer))
            ++depth;
        else if (toks[j].is(open) && --depth == 0)
            return j;
    }
    return -1;
}

/** Index just past the bracket matching toks[i] (an opener). */
int
matchForward(const Tokens &toks, int i, const char *open,
             const char *close)
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

const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> kWords = {
        "if", "for", "while", "switch", "catch", "constexpr",
        "return", "sizeof", "alignof", "do", "else",
    };
    return kWords;
}

/** Trailing tokens legal between a declarator's ')' and its '{'. */
bool
isTrailingSpecifier(const Token &tok)
{
    return tok.ident() &&
           (tok.text == "const" || tok.text == "noexcept" ||
            tok.text == "override" || tok.text == "final" ||
            tok.text == "mutable");
}

struct BraceInfo
{
    bool isFunction = false;
    bool isLambda = false;
    std::string name;
    std::string qualifier;
    int paramOpen = -1;   ///< '(' of the parameter list, or -1
    int paramClose = -1;  ///< matching ')'
    int nameLine = 0;
};

/**
 * Classify the '{' at @p open: function body, lambda body, or
 * neither. Walks backwards over trailing specifiers and, for
 * constructors, the member-init list.
 */
BraceInfo
classifyBrace(const Tokens &toks, int open)
{
    BraceInfo info;
    int j = open;
    while (j > 0 && isTrailingSpecifier(toks[j - 1]))
        --j;
    if (j == 0)
        return info;

    // Capture-only lambda: `[this] { ... }`.
    if (toks[j - 1].is("]")) {
        const int lb = matchBack(toks, j - 1, "[", "]");
        if (lb >= 0) {
            info.isFunction = info.isLambda = true;
            info.name = "<lambda>";
            info.nameLine = toks[lb].line;
        }
        return info;
    }
    if (!toks[j - 1].is(")"))
        return info;

    int groupClose = j - 1;
    // Constructors interpose `: member(init), member(init)` between
    // the parameter list and the body; walk the groups right to left.
    while (true) {
        const int k = matchBack(toks, groupClose, "(", ")");
        if (k <= 0)
            return info;
        const Token &before = toks[k - 1];
        if (before.is("]")) {
            const int lb = matchBack(toks, k - 1, "[", "]");
            if (lb < 0)
                return info;
            info.isFunction = info.isLambda = true;
            info.name = "<lambda>";
            info.nameLine = toks[lb].line;
            info.paramOpen = k;
            info.paramClose = groupClose;
            return info;
        }
        if (!before.ident() || controlKeywords().count(before.text))
            return info;

        info.name = before.text;
        info.nameLine = before.line;
        info.paramOpen = k;
        info.paramClose = groupClose;
        int q = k - 2;
        if (q >= 1 && toks[q].is("::") && toks[q - 1].ident()) {
            info.qualifier = toks[q - 1].text;
            q -= 2;
        } else {
            info.qualifier.clear();
        }
        if (q < 0) {
            info.isFunction = true;
            return info;
        }
        const Token &prev = toks[q];
        if (prev.is(",")) {
            // Member-init item: the previous group ends just before
            // the comma.
            if (q >= 1 && toks[q - 1].is(")")) {
                groupClose = q - 1;
                info.qualifier.clear();
                continue;
            }
            return info;
        }
        if (prev.is(":")) {
            // Init-list intro: the parameter list's ')' precedes it
            // (possibly behind noexcept).
            int p = q - 1;
            while (p > 0 && isTrailingSpecifier(toks[p]))
                --p;
            if (p >= 0 && toks[p].is(")")) {
                groupClose = p;
                info.qualifier.clear();
                continue;
            }
            return info;
        }
        // Reject expression contexts: `obj.method(...) {` cannot be
        // a definition; so the declarator must follow a type name,
        // scope punctuation that ends a previous declaration, or a
        // declarator adornment.
        if (prev.is(".") || prev.is("->") || prev.is("(") ||
            prev.is("[") || prev.is("=") || prev.is(","))
            return info;
        info.isFunction = true;
        return info;
    }
}

const std::set<std::string> &
mutatorMethods()
{
    static const std::set<std::string> kMutators = {
        "erase",        "insert",       "push_back",  "pop_back",
        "push_front",   "pop_front",    "clear",      "emplace",
        "emplace_back", "emplace_front", "resize",    "assign",
        "pushFront",    "pushBack",     "popFront",   "popBack",
        "remove",
    };
    return kMutators;
}

/**
 * Callback-slot names: a call through one is an indirect call, be it
 * a local (`fn()`) or a member (`event._fn(event)`).
 */
bool
isCallbackSlotName(const std::string &name)
{
    const std::string slot = name[0] == '_' ? name.substr(1) : name;
    return slot == "fn" || slot == "cb" || slot == "probe" ||
           slot == "callback" || slot == "handler" || slot == "hook";
}

/**
 * Names of functions whose address this file passes as an argument
 * or initializer (`Event(&Daemon::fire)`, `{&fire}`): trampolines an
 * event node or hook slot will call indirectly.
 */
std::set<std::string>
addressTakenNames(const Tokens &toks)
{
    std::set<std::string> names;
    const int n = static_cast<int>(toks.size());
    for (int i = 1; i + 1 < n; ++i) {
        if (!toks[i].is("&") ||
            !(toks[i - 1].is("(") || toks[i - 1].is(",") ||
              toks[i - 1].is("{")))
            continue;
        int j = i + 1;
        while (j + 2 < n && toks[j].ident() && toks[j + 1].is("::"))
            j += 2;
        if (j + 1 < n && toks[j].ident() &&
            (toks[j + 1].is(")") || toks[j + 1].is(",") ||
             toks[j + 1].is("}")))
            names.insert(toks[j].text);
    }
    return names;
}

/**
 * Does a `_storedMember(...)` call look like a callback slot? Only
 * names ending in an observer-ish word count: `_rereadProbe(f)` is a
 * dispatch, but `_keyFn(obj)` in a container is a pure key extractor
 * and edging it to the whole pool drowns every table walk in noise.
 */
bool
hasCallbackSuffix(const std::string &name)
{
    static const char *kSuffixes[] = {"hook",    "probe",    "cb",
                                      "callback", "handler", "observer"};
    std::string lower;
    lower.reserve(name.size());
    for (const char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (const char *suffix : kSuffixes) {
        const size_t n = std::char_traits<char>::length(suffix);
        if (lower.size() >= n &&
            lower.compare(lower.size() - n, n, suffix) == 0)
            return true;
    }
    return false;
}

/** Does @p callee look like a callback-registration API? */
bool
isRegistrationCallee(const std::string &callee)
{
    if (callee == "schedule")
        return true;
    auto prefixed = [&](const char *prefix) {
        const size_t n = std::char_traits<char>::length(prefix);
        return callee.size() > n && callee.compare(0, n, prefix) == 0 &&
               std::isupper(static_cast<unsigned char>(callee[n]));
    };
    return prefixed("add") || prefixed("set") || prefixed("register");
}

/**
 * Receiver of the member access ending at toks[dot] ('.' or '->'):
 * walks one `ident` or `ident[...]` chain leftwards. Returns the
 * receiver identifier (empty if the receiver is an expression) and
 * sets @p subscripted.
 */
std::string
receiverIdent(const Tokens &toks, int dot, bool &subscripted)
{
    subscripted = false;
    int j = dot - 1;
    while (j > 0 && toks[j].is("]")) {
        const int lb = matchBack(toks, j, "[", "]");
        if (lb < 0)
            return "";
        subscripted = true;
        j = lb - 1;
    }
    if (j >= 0 && toks[j].ident())
        return toks[j].text;
    return "";
}

/** First identifier in [from, to) resolving to a root in @p fn. */
std::string
firstRootIn(const FunctionDef &fn, const Tokens &toks, int from, int to)
{
    for (int j = from; j < to; ++j) {
        if (!toks[j].ident())
            continue;
        const bool subscripted =
            j + 1 < to && toks[j + 1].is("[");
        const std::string root =
            resolveRoot(fn, toks[j].text, subscripted);
        if (!root.empty())
            return root;
    }
    return "";
}

/** Parse the parameter list between paramOpen/paramClose. */
void
parseParams(const Tokens &toks, int paramOpen, int paramClose,
            FunctionDef &fn)
{
    if (paramOpen < 0 || paramClose <= paramOpen + 1)
        return;
    int depth = 0;
    int segStart = paramOpen + 1;
    auto flush = [&](int segEnd) {
        // The parameter name is the last identifier in the segment
        // that isn't inside brackets and isn't followed by '::'.
        std::string name;
        bool byRef = false;
        int d = 0;
        for (int j = segStart; j < segEnd; ++j) {
            if (toks[j].is("<") || toks[j].is("(") || toks[j].is("["))
                ++d;
            else if (toks[j].is(">") || toks[j].is(")") ||
                     toks[j].is("]"))
                --d;
            else if (d == 0 && toks[j].is("&"))
                byRef = true;
            else if (d == 0 && toks[j].is("="))
                break;  // default argument: name came before
            else if (d == 0 && toks[j].ident() &&
                     !(j + 1 < segEnd && toks[j + 1].is("::")))
                name = toks[j].text;
        }
        if (!name.empty() && name != "void" && name != "const")
            fn.params.push_back({name, byRef});
        else if (segEnd > segStart)
            fn.params.push_back({"", false});  // unnamed: keep arity
    };
    for (int j = paramOpen + 1; j <= paramClose; ++j) {
        if (toks[j].is("(") || toks[j].is("<") || toks[j].is("["))
            ++depth;
        else if (toks[j].is(">") || toks[j].is("]"))
            --depth;
        else if (toks[j].is(")")) {
            if (j == paramClose) {
                if (j > segStart)
                    flush(j);
                break;
            }
            --depth;
        } else if (toks[j].is(",") && depth == 0) {
            flush(j);
            segStart = j + 1;
        }
    }
}

/** Collect `auto &name = expr;` reference aliases in the body. */
void
collectAliases(const Tokens &toks, int begin, int end, FunctionDef &fn)
{
    for (int i = begin; i + 2 < end; ++i) {
        if (!toks[i].is("&") || !toks[i + 1].ident() ||
            !toks[i + 2].is("="))
            continue;
        // Reject comparisons (&& lexes as two '&') and compound
        // operators: require a type-ish token before the '&'.
        if (i > begin && !(toks[i - 1].ident() || toks[i - 1].is(">")))
            continue;
        const std::string &name = toks[i + 1].text;
        int stop = i + 3;
        while (stop < end && !toks[stop].is(";"))
            ++stop;
        const std::string root =
            firstRootIn(fn, toks, i + 3, stop);
        if (!root.empty())
            fn.aliases[name] = root;
    }
}

} // namespace

bool
isMutatorMethod(const std::string &method)
{
    return mutatorMethods().count(method) > 0;
}

std::string
resolveRoot(const FunctionDef &fn, const std::string &ident,
            bool subscripted)
{
    auto alias = fn.aliases.find(ident);
    if (alias != fn.aliases.end()) {
        std::string root = alias->second;
        if (subscripted && root.size() >= 2 &&
            root.compare(root.size() - 2, 2, "[]") != 0)
            root += "[]";
        return root;
    }
    for (size_t k = 0; k < fn.params.size(); ++k) {
        if (fn.params[k].name == ident) {
            if (!fn.params[k].byRef)
                return "";  // by-value: mutation stays local
            return std::string("%").append(std::to_string(k));
        }
    }
    if (!ident.empty() && ident[0] == '_')
        return subscripted ? ident + "[]" : ident;
    if (!ident.empty())
        return std::string("local:") + ident + (subscripted ? "[]" : "");
    return "";
}

FileIndex
indexFile(const SourceFile &file)
{
    FileIndex index;
    const Tokens &toks = file.tokens;
    const int n = static_cast<int>(toks.size());

    // Pass 1: locate every function/lambda body.
    for (int i = 0; i < n; ++i) {
        if (!toks[i].is("{"))
            continue;
        BraceInfo info = classifyBrace(toks, i);
        if (!info.isFunction)
            continue;
        FunctionDef fn;
        fn.name = info.name;
        fn.qualifier = info.qualifier;
        fn.line = info.nameLine;
        fn.isLambda = info.isLambda;
        fn.bodyBegin = i;
        fn.bodyEnd = matchForward(toks, i, "{", "}");
        parseParams(toks, info.paramOpen, info.paramClose, fn);
        if (info.isLambda) {
            // Registered callback? Find the innermost enclosing call:
            // the first unmatched '(' to the left of the lambda, and
            // the identifier before it.
            int depth = 0;
            const int lambdaStart =
                info.paramOpen >= 0 ? info.paramOpen : i;
            for (int j = lambdaStart - 1; j >= 0; --j) {
                if (toks[j].is(")") || toks[j].is("]") || toks[j].is("}"))
                    ++depth;
                else if (toks[j].is("(") || toks[j].is("[") ||
                         toks[j].is("{")) {
                    if (depth == 0) {
                        if (toks[j].is("(") && j > 0 &&
                            toks[j - 1].ident() &&
                            isRegistrationCallee(toks[j - 1].text))
                            fn.registeredVia = toks[j - 1].text;
                        break;
                    }
                    --depth;
                } else if (toks[j].is(";")) {
                    break;
                }
            }
        }
        index.functions.push_back(std::move(fn));
    }

    // Functions whose address is handed out join the pool as well.
    const std::set<std::string> taken = addressTakenNames(toks);
    for (FunctionDef &fn : index.functions) {
        if (!fn.isLambda && fn.registeredVia.empty() && taken.count(fn.name))
            fn.registeredVia = "&" + fn.name;
    }

    // Nested-body ranges to exclude from each function's own scan:
    // a lambda's calls belong to the lambda, not its host.
    auto nestedRanges = [&](size_t self) {
        std::vector<std::pair<int, int>> ranges;
        const FunctionDef &fn = index.functions[self];
        for (size_t o = 0; o < index.functions.size(); ++o) {
            if (o == self)
                continue;
            const FunctionDef &other = index.functions[o];
            if (other.bodyBegin > fn.bodyBegin &&
                other.bodyEnd <= fn.bodyEnd)
                ranges.emplace_back(other.bodyBegin, other.bodyEnd);
        }
        std::sort(ranges.begin(), ranges.end());
        return ranges;
    };

    // Pass 2: per-function summaries.
    for (size_t f = 0; f < index.functions.size(); ++f) {
        FunctionDef &fn = index.functions[f];
        const auto skip = nestedRanges(f);

        auto makeStep = [&](int &i) {
            for (const auto &[from, to] : skip) {
                if (i >= from && i <= to) {
                    i = to;  // loop's ++i moves past the nested body
                    return;
                }
            }
        };

        collectAliases(toks, fn.bodyBegin, fn.bodyEnd, fn);

        for (int i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
            makeStep(i);
            if (i >= fn.bodyEnd || !toks[i].ident() ||
                i + 1 >= n || !toks[i + 1].is("("))
                continue;
            const std::string &name = toks[i].text;
            if (controlKeywords().count(name))
                continue;

            // `std::sort(...)` and friends are opaque: they never
            // touch our members, and resolving them by name would
            // alias any same-named method in the project.
            if (i >= 2 && toks[i - 1].is("::") &&
                toks[i - 2].text == "std")
                continue;

            const bool memberCall =
                i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));

            // Mutation: container-mutator method on a resolvable
            // receiver.
            if (memberCall && isMutatorMethod(name)) {
                bool subscripted = false;
                const std::string recv =
                    receiverIdent(toks, i - 1, subscripted);
                const std::string root =
                    recv.empty() ? ""
                                 : resolveRoot(fn, recv, subscripted);
                if (!root.empty()) {
                    fn.mutations.push_back(
                        {root, name, toks[i].line, i});
                    continue;
                }
            }

            CallSite call;
            call.callee = name;
            call.line = toks[i].line;
            call.tok = i;
            if (memberCall) {
                bool subscripted = false;
                const std::string recv =
                    receiverIdent(toks, i - 1, subscripted);
                if (!recv.empty())
                    call.recvRoot = resolveRoot(fn, recv, subscripted);
            }
            // Indirect: a callback-slot field, or a call directly
            // through a stored `_rereadProbe`-style member whose name
            // ends in an observer-ish word. Double-underscore names
            // are reserved (compiler builtins such as
            // __builtin_expect), never stored callbacks.
            call.indirect =
                isCallbackSlotName(name) ||
                (!memberCall && name[0] == '_' && name[1] != '_' &&
                 hasCallbackSuffix(name));

            // Top-level argument roots.
            const int close = matchForward(toks, i + 1, "(", ")");
            int depth = 0;
            int argStart = i + 2;
            for (int j = i + 1; j <= close; ++j) {
                if (toks[j].is("(") || toks[j].is("[") || toks[j].is("{"))
                    ++depth;
                else if (toks[j].is("]") || toks[j].is("}"))
                    --depth;
                else if (toks[j].is(")")) {
                    if (--depth == 0) {
                        if (j > argStart)
                            call.argRoots.push_back(firstRootIn(
                                fn, toks, argStart, j));
                        break;
                    }
                } else if (toks[j].is(",") && depth == 1) {
                    call.argRoots.push_back(
                        firstRootIn(fn, toks, argStart, j));
                    argStart = j + 1;
                }
            }
            call.argCount = static_cast<int>(call.argRoots.size());
            fn.calls.push_back(std::move(call));
        }
    }
    return index;
}

} // namespace klint
