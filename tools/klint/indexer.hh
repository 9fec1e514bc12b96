/**
 * @file
 * Declaration/definition indexer for klint's interprocedural rules.
 *
 * The indexer walks one lexed file and extracts every function
 * definition (free functions, `Class::method` definitions, and
 * lambda literals) together with a per-function summary:
 *
 *   - the parameter list (names + by-reference-ness),
 *   - local reference aliases (`auto &list = _perCpu[cpu]`),
 *   - direct container mutations (`list.erase(...)`),
 *   - outgoing call sites with per-argument root resolution,
 *   - whether the body calls through a callback slot, and
 *   - whether the function is itself a callback registered through
 *     an observer/hook/scheduler API, or a trampoline whose address
 *     its file hands out.
 *
 * Container identity is a *root path*, not a type: the repo's
 * `_member` naming convention makes member state recognisable at
 * token level. Roots are
 *
 *   `_member`      the member container itself
 *   `_member[]`    any element of a subscripted member (one level)
 *   `%<k>`         the function's k-th by-reference parameter
 *   `local:x`      a function-local container
 *
 * `_member[]` is deliberately distinct from `_member`: mutating an
 * element of `_perCpu` does not invalidate iteration over `_perCpu`
 * itself, and conflating the two drowned the interprocedural rules
 * in false positives.
 *
 * The summaries are cheap to serialize, which is what the
 * file-hash-keyed symbol cache (cache.hh) stores.
 */

#ifndef KLOC_TOOLS_KLINT_INDEXER_HH
#define KLOC_TOOLS_KLINT_INDEXER_HH

#include <map>
#include <string>
#include <vector>

#include "tools/klint/lexer.hh"

namespace klint {

struct Param
{
    std::string name;
    bool byRef = false;
};

struct CallSite
{
    std::string callee;  ///< unqualified name left of the '('
    int line = 0;
    int tok = 0;         ///< token index of the callee identifier
    bool indirect = false;  ///< call through a callback slot
    std::string recvRoot;   ///< resolved root of the receiver, or ""
    /** Resolved root of each top-level argument ("" when none). */
    std::vector<std::string> argRoots;
    /** Top-level argument count, for overload-set pruning. */
    int argCount = 0;
};

struct Mutation
{
    std::string root;    ///< resolved receiver root
    std::string method;  ///< erase/insert/push_back/...
    int line = 0;
    int tok = 0;
};

struct FunctionDef
{
    std::string name;       ///< unqualified; "<lambda>" for lambdas
    std::string qualifier;  ///< enclosing class for Class::method
    int line = 0;
    int bodyBegin = 0;  ///< token index of the opening '{'
    int bodyEnd = 0;    ///< token index of the matching '}'
    bool isLambda = false;
    /**
     * Name of the registration API this lambda was passed to
     * (`setRereadHook`, `schedule`, ...), or `&name` for a
     * function whose address its file hands out (an event
     * trampoline). Non-empty means the function joins the callback
     * pool: any indirect call site may reach it.
     */
    std::string registeredVia;
    std::vector<Param> params;
    std::vector<CallSite> calls;
    std::vector<Mutation> mutations;
    /** Local reference name -> root path. */
    std::map<std::string, std::string> aliases;

    std::string
    displayName() const
    {
        if (isLambda) {
            return "<lambda:" + std::to_string(line) + ">" +
                   (registeredVia.empty() ? ""
                                          : " registered via " +
                                                registeredVia);
        }
        return qualifier.empty() ? name : qualifier + "::" + name;
    }
};

struct FileIndex
{
    std::vector<FunctionDef> functions;
};

/** Index @p file's function definitions and summaries. */
FileIndex indexFile(const SourceFile &file);

/**
 * Resolve identifier @p ident (receiver or argument position) inside
 * @p fn to a root path; @p subscripted appends "[]" to member/local
 * roots. Returns "" for identifiers that are neither a member, a
 * parameter, an alias, nor a plausible local container.
 */
std::string resolveRoot(const FunctionDef &fn, const std::string &ident,
                        bool subscripted);

/** True when @p method is a container mutator klint recognises. */
bool isMutatorMethod(const std::string &method);

} // namespace klint

#endif // KLOC_TOOLS_KLINT_INDEXER_HH
