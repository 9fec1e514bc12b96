/**
 * @file
 * Per-inode page cache on a radix tree, like Linux's address_space.
 *
 * Pages are PageCachePage kernel objects; interior radix nodes are
 * themselves slab kernel objects (RadixNodeObj) so their placement
 * and footprint count — radix nodes are among the structures the
 * paper calls out as frequently allocated and deleted (§3.1).
 */

#ifndef KLOC_FS_PAGE_CACHE_HH
#define KLOC_FS_PAGE_CACHE_HH

#include <functional>
#include <memory>
#include <vector>

#include "base/radix_tree.hh"
#include "core/kloc_manager.hh"
#include "fs/objects.hh"
#include "kobj/kernel_heap.hh"

namespace kloc {

/** Per-inode page cache. */
class PageCache
{
  public:
    PageCache(KernelHeap &heap, KlocManager *kloc, uint64_t inode_id,
              bool data_backed);
    ~PageCache();

    PageCache(const PageCache &) = delete;
    PageCache &operator=(const PageCache &) = delete;

    /** Bind the inode's knode (objects created later attach to it). */
    void setKnode(Knode *knode) { _knode = knode; }

    Knode *knode() const { return _knode; }

    /**
     * Look up the page at @p index, charging the radix descent
     * against the tree's interior-node placement.
     */
    PageCachePage *find(uint64_t index);

    /**
     * Allocate and insert a new page at @p index.
     * @return the page, or nullptr on memory exhaustion or conflict.
     */
    PageCachePage *insertNew(uint64_t index, bool active);

    /** Remove @p page from the tree and free it. */
    void removeAndFree(PageCachePage *page);

    /** Mark @p page dirty (sets the radix Dirty tag). */
    void markDirty(PageCachePage *page);

    /** Clear @p page's dirty state (after writeback). */
    void clearDirty(PageCachePage *page);

    /**
     * Fill @p out (cleared first) with up to @p max dirty pages with
     * index >= @p start, in index order. The writeback daemon calls
     * this every tick with a reused buffer, so the steady state
     * allocates nothing.
     * The walk is not charged simulated cost — writeback already
     * pays per-page when it touches frames and submits bios — so
     * batching here cannot move sim-time metrics.
     */
    void collectDirty(uint64_t start_index, FrameCount max,
                      std::vector<PageCachePage *> &out);

    /** Visit every cached page. */
    void forEachPage(const std::function<void(PageCachePage *)> &fn);

    uint64_t pageCount() const { return _tree.size(); }

    uint64_t dirtyCount() const { return _dirtyCount; }

    bool dataBacked() const { return _dataBacked; }

  private:
    void chargeDescent(uint64_t before);
    void onRadixNodeChange(bool created);

    KernelHeap &_heap;
    KlocManager *_kloc;
    uint64_t _inodeId;
    bool _dataBacked;
    Knode *_knode = nullptr;

    RadixTree _tree;
    /** Kernel objects backing interior radix nodes (LIFO pool). */
    std::vector<std::unique_ptr<RadixNodeObj>> _radixNodes;
    uint64_t _dirtyCount = 0;
    /** Reused gang-lookup buffer (collectDirty / forEachPage). */
    std::vector<std::pair<uint64_t, void *>> _gangScratch;
};

} // namespace kloc

#endif // KLOC_FS_PAGE_CACHE_HH
