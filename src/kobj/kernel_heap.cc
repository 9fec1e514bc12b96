#include "kobj/kernel_heap.hh"

#include "base/logging.hh"

namespace kloc {

KernelHeap::KernelHeap(MemAccessor &mem, TierManager &tiers)
    : _mem(mem), _tiers(tiers)
{
    for (unsigned i = 0; i < kNumKobjKinds; ++i) {
        const auto kind = static_cast<KobjKind>(i);
        if (!kobjIsSlab(kind))
            continue;
        _caches[i] = std::make_unique<KmemCache>(
            _mem, _tiers, std::string(kobjKindName(kind)) + "_cache",
            kobjSize(kind), kobjClass(kind));
    }
}

void
KernelHeap::setKlocInterface(bool enabled)
{
    _klocInterface = enabled;
    for (auto &cache : _caches) {
        if (cache)
            cache->setKlocMode(enabled);
    }
}

KmemCache &
KernelHeap::cache(KobjKind kind)
{
    auto &ptr = _caches[static_cast<unsigned>(kind)];
    KLOC_ASSERT(ptr != nullptr, "kind %s is not slab-backed",
                kobjKindName(kind));
    return *ptr;
}

bool
KernelHeap::allocBacking(KernelObject &obj, bool knode_active,
                         uint64_t group_key)
{
    KLOC_ASSERT(_policy != nullptr, "KernelHeap used without a policy");
    KLOC_ASSERT(!obj.backed(), "double allocation of %s",
                kobjKindName(obj.kind));

    const auto pref =
        _policy->kernelPreference(kobjClass(obj.kind), knode_active);
    obj.allocTick = _mem.machine().now();

    if (kobjIsSlab(obj.kind)) {
        obj.slab = cache(obj.kind).alloc(
            pref, _klocInterface ? group_key : 0);
        return obj.slab.valid();
    }

    // Page-backed kinds. Page-cache and journal pages are always
    // relocatable (they are virtually mapped); packet data buffers
    // and rx rings are physically referenced and become relocatable
    // only through the KLOC interface.
    const bool relocatable =
        obj.kind == KobjKind::PageCachePage ||
        obj.kind == KobjKind::JournalPage || _klocInterface;
    Frame *page = _tiers.alloc(0, kobjClass(obj.kind), relocatable, pref);
    if (!page)
        return false;
    page->owner = nullptr;
    obj.slab.frame = page;
    // Page allocator path cost.
    _mem.machine().cpuWork(KmemCache::kSlowPathCost);
    return true;
}

void
KernelHeap::freeBacking(KernelObject &obj)
{
    // KlocManager's residency lists rely on this: a tracked object
    // keeps its frame, which changes only by migration.
    KLOC_ASSERT(obj.knode == nullptr, "freeing the backing of a tracked %s",
                kobjKindName(obj.kind));
    if (obj.backed()) {
        _objLifetimes[static_cast<unsigned>(obj.kind)].sample(
            static_cast<uint64_t>(_mem.machine().now() - obj.allocTick));
    }
    if (obj.slab.valid()) {
        obj.slab.cache->free(obj.slab);
    } else if (Frame *page = obj.page()) {
        _tiers.free(page);
        obj.slab.frame = nullptr;
        _mem.machine().cpuWork(KmemCache::kSlowPathCost);
    }
}

Frame *
KernelHeap::allocAppPage()
{
    return allocAppPages(0);
}

Frame *
KernelHeap::allocAppPages(unsigned order)
{
    KLOC_ASSERT(_policy != nullptr, "KernelHeap used without a policy");
    const auto pref = _policy->appPreference();
    Frame *frame = _tiers.alloc(order, ObjClass::App, true, pref);
    if (frame) {
        _liveAppPages += frame->pages();
        _cumAppPages += frame->pages();
    }
    return frame;
}

void
KernelHeap::freeAppPage(Frame *frame)
{
    KLOC_ASSERT(frame->objClass == ObjClass::App, "not an app page");
    KLOC_ASSERT(_liveAppPages >= frame->pages(),
                "app page accounting underflow");
    _liveAppPages -= frame->pages();
    _tiers.free(frame);
}

} // namespace kloc
