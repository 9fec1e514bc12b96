#include "tools/klint/cache.hh"

#include <fstream>
#include <sstream>

namespace klint {

namespace {

// Bumped whenever indexing changes what it records for the same
// source, so a cache written by an older klint is discarded whole.
constexpr const char *kMagic = "klint-cache-v2";

/** Fields never contain whitespace (identifiers and root paths), so
 *  a space-separated line format round-trips exactly; empty strings
 *  are encoded as "-". */
std::string
enc(const std::string &s)
{
    return s.empty() ? "-" : s;
}

std::string
dec(const std::string &s)
{
    return s == "-" ? "" : s;
}

} // namespace

bool
SymbolCache::load(const std::string &path)
{
    _entries.clear();
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line) || line != kMagic)
        return false;

    std::string file;
    Entry entry;
    FunctionDef *fn = nullptr;
    auto flush = [&]() {
        if (!file.empty())
            _entries[file] = std::move(entry);
        entry = Entry{};
        fn = nullptr;
    };

    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag))
            continue;
        if (tag == "F") {
            flush();
            if (!(ls >> file >> entry.hash)) {
                _entries.clear();
                return false;
            }
        } else if (tag == "f") {
            std::string name, qual, via;
            int ln, b, e, lambda;
            if (!(ls >> name >> qual >> ln >> b >> e >> lambda >> via)) {
                _entries.clear();
                return false;
            }
            entry.index.functions.push_back({});
            fn = &entry.index.functions.back();
            fn->name = dec(name);
            fn->qualifier = dec(qual);
            fn->line = ln;
            fn->bodyBegin = b;
            fn->bodyEnd = e;
            fn->isLambda = lambda != 0;
            fn->registeredVia = dec(via);
        } else if (tag == "p" && fn) {
            std::string name;
            int byRef;
            if (ls >> name >> byRef)
                fn->params.push_back({dec(name), byRef != 0});
        } else if (tag == "c" && fn) {
            CallSite call;
            std::string callee, recv;
            int indirect, nargs;
            if (!(ls >> callee >> call.line >> call.tok >> indirect >>
                  recv >> nargs))
                continue;
            call.callee = dec(callee);
            call.indirect = indirect != 0;
            call.recvRoot = dec(recv);
            for (int k = 0; k < nargs; ++k) {
                std::string root;
                ls >> root;
                call.argRoots.push_back(dec(root));
            }
            fn->calls.push_back(std::move(call));
        } else if (tag == "m" && fn) {
            Mutation m;
            std::string root, method;
            if (ls >> root >> method >> m.line >> m.tok) {
                m.root = dec(root);
                m.method = dec(method);
                fn->mutations.push_back(std::move(m));
            }
        } else if (tag == "a" && fn) {
            std::string local, root;
            if (ls >> local >> root)
                fn->aliases[dec(local)] = dec(root);
        }
    }
    flush();
    return true;
}

bool
SymbolCache::store(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << kMagic << "\n";
    for (const auto &[file, entry] : _entries) {
        out << "F " << file << " " << entry.hash << "\n";
        for (const FunctionDef &fn : entry.index.functions) {
            out << "f " << enc(fn.name) << " " << enc(fn.qualifier)
                << " " << fn.line << " " << fn.bodyBegin << " "
                << fn.bodyEnd << " " << (fn.isLambda ? 1 : 0) << " "
                << enc(fn.registeredVia) << "\n";
            for (const Param &p : fn.params)
                out << "p " << enc(p.name) << " " << (p.byRef ? 1 : 0)
                    << "\n";
            for (const CallSite &c : fn.calls) {
                out << "c " << enc(c.callee) << " " << c.line << " "
                    << c.tok << " " << (c.indirect ? 1 : 0) << " "
                    << enc(c.recvRoot) << " " << c.argRoots.size();
                for (const std::string &root : c.argRoots)
                    out << " " << enc(root);
                out << "\n";
            }
            for (const Mutation &m : fn.mutations)
                out << "m " << enc(m.root) << " " << enc(m.method)
                    << " " << m.line << " " << m.tok << "\n";
            for (const auto &[local, root] : fn.aliases)
                out << "a " << enc(local) << " " << enc(root) << "\n";
        }
    }
    return static_cast<bool>(out);
}

const FileIndex *
SymbolCache::lookup(const std::string &file, uint64_t hash) const
{
    auto it = _entries.find(file);
    if (it == _entries.end() || it->second.hash != hash)
        return nullptr;
    return &it->second.index;
}

} // namespace klint
