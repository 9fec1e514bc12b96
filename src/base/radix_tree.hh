/**
 * @file
 * Radix tree mapping 64-bit indices to pointers, modelled on the
 * Linux page-cache radix tree (lib/radix-tree.c).
 *
 * Each per-inode page cache is one of these trees, keyed by page
 * offset within the file. Like Linux, nodes have 64-way fanout and
 * carry per-slot tag bitmaps (dirty / towrite) so writeback and the
 * journal can find dirty pages without scanning the whole file.
 *
 * Interior nodes are themselves slab-like kernel allocations in the
 * paper's accounting; callers can register an allocation observer to
 * charge node allocations to the right kernel-object class.
 */

#ifndef KLOC_BASE_RADIX_TREE_HH
#define KLOC_BASE_RADIX_TREE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace kloc {

/** Tags a slot can carry, mirroring PAGECACHE_TAG_*. */
enum class RadixTag : unsigned { Dirty = 0, Towrite = 1 };

/**
 * Radix tree from uint64_t index to T* (non-owning).
 * Fanout is 64 slots per node; height grows on demand.
 */
class RadixTree
{
  public:
    static constexpr unsigned kMapShift = 6;
    static constexpr unsigned kMapSize = 1u << kMapShift;  // 64
    static constexpr unsigned kTagCount = 2;

    /** Observer invoked when interior nodes are created/destroyed. */
    using NodeObserver = std::function<void(bool created)>;

    RadixTree() = default;
    ~RadixTree();

    RadixTree(const RadixTree &) = delete;
    RadixTree &operator=(const RadixTree &) = delete;

    /** Register a callback for interior-node allocation accounting. */
    void setNodeObserver(NodeObserver obs) { _observer = std::move(obs); }

    /**
     * Insert @p item at @p index.
     * @return true on success, false if the slot is occupied.
     */
    bool insert(uint64_t index, void *item);

    /** Item at @p index, or nullptr. */
    void *lookup(uint64_t index) const;

    /**
     * Remove and return the item at @p index (nullptr if absent).
     * Empty interior nodes are freed and the tree shrinks.
     */
    void *erase(uint64_t index);

    /** Number of items stored. */
    uint64_t size() const { return _count; }

    bool empty() const { return _count == 0; }

    /** Number of live interior nodes (for metadata accounting). */
    uint64_t nodeCount() const { return _nodes; }

    /**
     * Interior nodes visited across all descents so far; callers
     * charge memory-reference costs from deltas of this counter.
     */
    uint64_t nodesVisited() const { return _visited; }

    /** Set @p tag on the item at @p index; no-op if absent. */
    void setTag(uint64_t index, RadixTag tag);

    /** Clear @p tag on the item at @p index; no-op if absent. */
    void clearTag(uint64_t index, RadixTag tag);

    /** True when the item at @p index carries @p tag. */
    bool getTag(uint64_t index, RadixTag tag) const;

    /**
     * Collect up to @p max_items items with index >= @p start, in
     * index order, as {index, item} pairs into @p out. @p out is
     * cleared first; once it has grown to a steady-state capacity
     * repeated calls are allocation-free, which is what the
     * writeback path wants on every daemon tick.
     */
    void gangLookup(uint64_t start, unsigned max_items,
                    std::vector<std::pair<uint64_t, void *>> &out) const;

    /** gangLookup restricted to slots carrying @p tag. */
    void gangLookupTag(uint64_t start, unsigned max_items, RadixTag tag,
                       std::vector<std::pair<uint64_t, void *>> &out) const;

    /** Remove all entries (does not free the items). */
    void clear();

  private:
    struct Node;

    Node *allocNode(Node *parent, unsigned offset, unsigned shift);
    void freeNode(Node *node);
    void extendHeight(uint64_t index);
    Node *descend(uint64_t index) const;
    void shrinkAfterErase(Node *leaf);
    void propagateTagUp(Node *node, unsigned offset, RadixTag tag);
    void clearTagUp(Node *node, unsigned offset, RadixTag tag);
    void gangWalk(const Node *node, uint64_t base, uint64_t start,
                  unsigned max_items, int tag_or_neg,
                  std::vector<std::pair<uint64_t, void *>> &out) const;
    void destroySubtree(Node *node);

    Node *_root = nullptr;
    unsigned _height = 0;   // levels; 0 means empty tree
    uint64_t _count = 0;
    uint64_t _nodes = 0;
    mutable uint64_t _visited = 0;
    NodeObserver _observer;
};

} // namespace kloc

#endif // KLOC_BASE_RADIX_TREE_HH
