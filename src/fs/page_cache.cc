#include "fs/page_cache.hh"

#include "base/logging.hh"

namespace kloc {

PageCache::PageCache(KernelHeap &heap, KlocManager *kloc, uint64_t inode_id,
                     bool data_backed)
    : _heap(heap), _kloc(kloc), _inodeId(inode_id), _dataBacked(data_backed)
{
    _tree.setNodeObserver(
        [this](bool created) { onRadixNodeChange(created); });
}

PageCache::~PageCache()
{
    // Free any pages still cached (inode teardown).
    std::vector<PageCachePage *> pages;
    forEachPage([&](PageCachePage *page) { pages.push_back(page); });
    for (PageCachePage *page : pages)
        removeAndFree(page);
    // The tree is empty now; its observer has already released every
    // interior-node object.
    KLOC_ASSERT(_radixNodes.empty(), "radix node objects leaked");
}

void
PageCache::onRadixNodeChange(bool created)
{
    if (created) {
        auto node = std::make_unique<RadixNodeObj>();
        const uint64_t group = _knode ? _knode->id : 0;
        const bool active = _knode ? _knode->inuse : true;
        if (_heap.allocBacking(*node, active, group)) {
            if (_kloc && _knode)
                _kloc->addObject(_knode, node.get());
            _heap.touchObject(*node, AccessType::Write);
        }
        _radixNodes.push_back(std::move(node));
    } else {
        KLOC_ASSERT(!_radixNodes.empty(), "radix node underflow");
        auto node = std::move(_radixNodes.back());
        _radixNodes.pop_back();
        if (node->backed()) {
            if (_kloc && node->knode)
                _kloc->removeObject(node.get());
            _heap.freeBacking(*node);
        }
    }
}

void
PageCache::chargeDescent(uint64_t before)
{
    // Each visited interior node costs one small access on whatever
    // tier holds radix-node objects for this inode.
    const uint64_t visited = _tree.nodesVisited() - before;
    if (visited == 0 || _radixNodes.empty())
        return;
    KernelObject *repr = _radixNodes.back().get();
    if (!repr->backed())
        return;
    _heap.touchObjectN(*repr, Bytes{8}, AccessType::Read, visited);
}

PageCachePage *
PageCache::find(uint64_t index)
{
    const uint64_t before = _tree.nodesVisited();
    auto *page = static_cast<PageCachePage *>(_tree.lookup(index));
    chargeDescent(before);
    return page;
}

PageCachePage *
PageCache::insertNew(uint64_t index, bool active)
{
    auto page = std::make_unique<PageCachePage>();
    page->inodeId = _inodeId;
    page->pageIndex = index;
    page->owner = this;
    const uint64_t group = _knode ? _knode->id : 0;
    if (!_heap.allocBacking(*page, active, group))
        return nullptr;
    if (_dataBacked)
        page->data = std::make_unique<char[]>(kPageSize);

    const uint64_t before = _tree.nodesVisited();
    if (!_tree.insert(index, page.get())) {
        // Raced with an existing page at this index.
        _heap.freeBacking(*page);
        return nullptr;
    }
    chargeDescent(before);
    if (_kloc && _knode)
        _kloc->addObject(_knode, page.get());
    _heap.touchObject(*page, AccessType::Write);
    return page.release();
}

void
PageCache::removeAndFree(PageCachePage *page)
{
    KLOC_ASSERT(page->owner == this, "page belongs to another cache");
    if (page->dirty)
        clearDirty(page);
    void *erased = _tree.erase(page->pageIndex);
    KLOC_ASSERT(erased == page, "page cache tree out of sync");
    if (_kloc && page->knode)
        _kloc->removeObject(page);
    KLOC_ASSERT(!page->globalLruHook.linked(),
                "freeing page still on the global reclaim list");
    _heap.freeBacking(*page);
    delete page;
}

void
PageCache::markDirty(PageCachePage *page)
{
    if (!page->dirty) {
        page->dirty = true;
        ++_dirtyCount;
        _tree.setTag(page->pageIndex, RadixTag::Dirty);
    }
}

void
PageCache::clearDirty(PageCachePage *page)
{
    if (page->dirty) {
        page->dirty = false;
        KLOC_ASSERT(_dirtyCount > 0, "dirty count underflow");
        --_dirtyCount;
        _tree.clearTag(page->pageIndex, RadixTag::Dirty);
    }
}

void
PageCache::collectDirty(uint64_t start_index, FrameCount max,
                        std::vector<PageCachePage *> &out)
{
    out.clear();
    _tree.gangLookupTag(start_index, static_cast<unsigned>(max.value()),
                        RadixTag::Dirty, _gangScratch);
    out.reserve(_gangScratch.size());
    for (auto &[index, item] : _gangScratch)
        out.push_back(static_cast<PageCachePage *>(item));
}

void
PageCache::forEachPage(const std::function<void(PageCachePage *)> &fn)
{
    // Unlike the tag walks above, this one runs an arbitrary visitor
    // mid-batch, and a visitor that re-enters this cache (writeback,
    // reclaim) would refill the shared member scratch under us. Take
    // the buffer for the duration of the walk: a re-entrant walk then
    // grows its own, and the swap-back keeps the capacity amortised.
    std::vector<std::pair<uint64_t, void *>> scratch;
    scratch.swap(_gangScratch);
    uint64_t start = 0;
    while (true) {
        _tree.gangLookup(start, 256, scratch);
        if (scratch.empty())
            break;
        for (auto &[index, item] : scratch)
            fn(static_cast<PageCachePage *>(item));
        start = scratch.back().first + 1;
    }
    scratch.swap(_gangScratch);
}

} // namespace kloc
