/**
 * @file
 * Intrusive red-black tree modelled on Linux's lib/rbtree.c.
 *
 * The kernel tracks page-cache pages, extents, the KLOC kmap and both
 * per-knode object trees with rbtrees, so this is a first-class
 * substrate here. The balancing algorithms operate on untyped RbNode
 * hooks (rbtree.cc); RbTree<> adds a typed, comparator-driven wrapper.
 *
 * The tree counts node visits during descents (nodesVisited()) so the
 * simulator can charge memory-reference costs for traversals — the
 * paper's motivation for splitting rbtree-cache from rbtree-slab and
 * for the per-CPU fast-path lists (§4.3).
 */

#ifndef KLOC_BASE_RBTREE_HH
#define KLOC_BASE_RBTREE_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"

namespace kloc {

/** Embedded red-black tree hook, one per tree membership. */
struct RbNode
{
    RbNode *parent = nullptr;
    RbNode *left = nullptr;
    RbNode *right = nullptr;
    bool red = false;
    bool inTree = false;

    /** True when this node is currently inserted in some tree. */
    bool linked() const { return inTree; }
};

/** Untyped rbtree root; algorithms live in rbtree.cc. */
struct RbRoot
{
    RbNode *node = nullptr;

    bool empty() const { return node == nullptr; }
};

/**
 * Link @p fresh under @p parent at @p link, then rebalance.
 * Mirrors rb_link_node + rb_insert_color.
 */
void rbLinkAndBalance(RbRoot &root, RbNode *fresh, RbNode *parent,
                      RbNode **link);

/** Remove @p victim from @p root and rebalance (rb_erase). */
void rbErase(RbRoot &root, RbNode *victim);

/** Leftmost (minimum) node, or nullptr. */
RbNode *rbFirst(const RbRoot &root);

/** Rightmost (maximum) node, or nullptr. */
RbNode *rbLast(const RbRoot &root);

/** In-order successor, or nullptr. */
RbNode *rbNext(const RbNode *node);

/** In-order predecessor, or nullptr. */
RbNode *rbPrev(const RbNode *node);

/**
 * Validate red-black invariants below @p root; panics on violation.
 * Returns the black height. Test-support only — O(n).
 */
int rbValidate(const RbRoot &root);

/**
 * Typed intrusive red-black tree.
 *
 * @tparam T          Element type containing an RbNode.
 * @tparam HookMember Pointer to the RbNode member inside T.
 * @tparam KeyFn      Callable mapping const T& to an ordered key.
 */
template <typename T, RbNode T::*HookMember, typename KeyFn>
class RbTree
{
  public:
    explicit RbTree(KeyFn key_fn = KeyFn()) : _keyFn(key_fn) {}

    RbTree(const RbTree &) = delete;
    RbTree &operator=(const RbTree &) = delete;

    bool empty() const { return _root.empty(); }
    size_t size() const { return _size; }

    /** Memory references (node visits) across all descents so far. */
    uint64_t nodesVisited() const { return _nodesVisited; }

    /**
     * Insert @p obj. Duplicate keys are rejected.
     * @return true when inserted, false when the key already exists.
     */
    bool
    insert(T *obj)
    {
        RbNode **link = &_root.node;
        RbNode *parent = nullptr;
        const auto key = _keyFn(*obj);
        while (*link) {
            parent = *link;
            ++_nodesVisited;
            const auto pkey = _keyFn(*fromNode(parent));
            if (key < pkey) {
                link = &parent->left;
            } else if (pkey < key) {
                link = &parent->right;
            } else {
                return false;
            }
        }
        rbLinkAndBalance(_root, &(obj->*HookMember), parent, link);
        ++_size;
        return true;
    }

    /** Find the element with @p key, or nullptr. */
    template <typename K>
    T *
    find(const K &key) const
    {
        RbNode *node = _root.node;
        while (node) {
            ++_nodesVisited;
            T *obj = fromNode(node);
            const auto okey = _keyFn(*obj);
            if (key < okey)
                node = node->left;
            else if (okey < key)
                node = node->right;
            else
                return obj;
        }
        return nullptr;
    }

    /** Smallest element with key >= @p key, or nullptr. */
    template <typename K>
    T *
    lowerBound(const K &key) const
    {
        RbNode *node = _root.node;
        T *best = nullptr;
        while (node) {
            ++_nodesVisited;
            T *obj = fromNode(node);
            if (!(_keyFn(*obj) < key)) {
                best = obj;
                node = node->left;
            } else {
                node = node->right;
            }
        }
        return best;
    }

    /** Remove @p obj, which must be in this tree. */
    void
    erase(T *obj)
    {
        KLOC_ASSERT((obj->*HookMember).linked(), "erase of unlinked node");
        rbErase(_root, &(obj->*HookMember));
        --_size;
    }

    /** Minimum element, or nullptr. */
    T *
    first() const
    {
        RbNode *node = rbFirst(_root);
        return node ? fromNode(node) : nullptr;
    }

    /** In-order successor of @p obj, or nullptr. */
    T *
    next(T *obj) const
    {
        RbNode *node = rbNext(&(obj->*HookMember));
        return node ? fromNode(node) : nullptr;
    }

    /** Validate invariants (tests only). */
    void validate() const { rbValidate(_root); }

    /** Untyped root, exposed for white-box tests. */
    const RbRoot &root() const { return _root; }

  private:
    static T *
    fromNode(RbNode *node)
    {
        const auto offset = reinterpret_cast<size_t>(
            &(reinterpret_cast<T *>(0)->*HookMember));
        return reinterpret_cast<T *>(
            reinterpret_cast<char *>(node) - offset);
    }

    RbRoot _root;
    size_t _size = 0;
    [[no_unique_address]] KeyFn _keyFn;
    mutable uint64_t _nodesVisited = 0;
};

} // namespace kloc

#endif // KLOC_BASE_RBTREE_HH
