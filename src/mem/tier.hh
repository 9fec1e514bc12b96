/**
 * @file
 * One memory tier: a buddy-managed frame space plus Linux-style LRU
 * lists and per-class residency accounting.
 */

#ifndef KLOC_MEM_TIER_HH
#define KLOC_MEM_TIER_HH

#include <cstdint>
#include <vector>

#include "base/intrusive_list.hh"
#include "mem/buddy_allocator.hh"
#include "mem/frame.hh"
#include "sim/memory_model.hh"

namespace kloc {

/** LRU list pair for a tier. */
using FrameList = IntrusiveList<Frame, &Frame::lruHook>;

/** A memory tier's dynamic state. */
class Tier
{
  public:
    Tier(TierId id, const TierSpec &spec)
        : _id(id), _spec(spec), _buddy(framesIn(spec.capacity))
    {}

    TierId id() const { return _id; }
    const TierSpec &spec() const { return _spec; }

    /** Offline tiers take no new allocations or migration arrivals;
     *  resident frames stay addressable until drained. */
    bool online() const { return _online; }
    void setOnline(bool online) { _online = online; }

    BuddyAllocator &buddy() { return _buddy; }
    const BuddyAllocator &buddy() const { return _buddy; }

    /** Linux-style active/inactive LRU lists for this tier. */
    FrameList &activeList() { return _active; }
    FrameList &inactiveList() { return _inactive; }

    /** The list @p frame's standing puts it on. */
    FrameList &
    lruList(const Frame &frame)
    {
        return frame.onActiveList ? _active : _inactive;
    }

    FrameCount totalPages() const { return _buddy.totalFrames(); }

    /**
     * Pages handed out to frames. Blocks parked in the per-CPU
     * caches are held by the buddy but are immediately allocatable,
     * so they count as free, not used.
     */
    FrameCount
    usedPages() const
    {
        return _buddy.usedFrames() - FrameCount{_pcpCached};
    }

    FrameCount
    freePages() const
    {
        return _buddy.freeFrames() + FrameCount{_pcpCached};
    }

    // -- per-CPU frame cache (Linux pcp lists) ---------------------------
    /** Blocks moved between a CPU cache and the buddy per refill/flush. */
    static constexpr size_t kPcpBatch = 8;
    /** Cache depth that triggers a flush back to the buddy. */
    static constexpr size_t kPcpCap = 2 * kPcpBatch;

    /**
     * Size (or drop) the per-CPU caches of order-0 blocks. Called by
     * TierManager at tier creation and from its
     * setUsePerCpuFrameLists toggle; disabling drains first.
     */
    void
    configurePcp(unsigned cpus, bool enabled)
    {
        drainPcp();
        _pcp.clear();
        if (enabled)
            _pcp.resize(cpus);
    }

    /** Order-0 blocks currently parked in CPU caches. */
    uint64_t pcpCached() const { return _pcpCached; }

    /**
     * Allocate one order-0 block via @p cpu's cache: LIFO pop for
     * locality, batch refill from the buddy on miss.
     */
    Pfn
    pcpAlloc(unsigned cpu)
    {
        if (_pcp.empty())
            return _buddy.alloc(0);
        std::vector<Pfn> &cache = _pcp[cpu];
        if (cache.empty()) {
            for (size_t i = 0; i < kPcpBatch; ++i) {
                const Pfn pfn = _buddy.alloc(0);
                if (pfn == kInvalidPfn)
                    break;
                cache.push_back(pfn);
                ++_pcpCached;
            }
            if (cache.empty())
                return kInvalidPfn;
        }
        const Pfn pfn = cache.back();
        cache.pop_back();
        --_pcpCached;
        return pfn;
    }

    /**
     * Return one order-0 block to @p cpu's cache; past the cap the
     * coldest batch flushes back to the buddy (where it can
     * coalesce).
     */
    void
    pcpFree(unsigned cpu, Pfn pfn)
    {
        if (_pcp.empty()) {
            _buddy.free(pfn, 0);
            return;
        }
        std::vector<Pfn> &cache = _pcp[cpu];
        cache.push_back(pfn);
        ++_pcpCached;
        if (cache.size() > kPcpCap) {
            for (size_t i = 0; i < kPcpBatch; ++i)
                _buddy.free(cache[i], 0);
            cache.erase(cache.begin(), cache.begin() + kPcpBatch);
            _pcpCached -= kPcpBatch;
        }
    }

    /** True when @p pfn is free: in a free buddy block or parked in
     *  a per-CPU cache. */
    bool
    pageFree(Pfn pfn) const
    {
        if (_buddy.isFree(pfn))
            return true;
        for (const std::vector<Pfn> &cache : _pcp) {
            for (const Pfn cached : cache) {
                if (cached == pfn)
                    return true;
            }
        }
        return false;
    }

    /** Flush every CPU cache to the buddy (offline, toggle-off). */
    void
    drainPcp()
    {
        for (std::vector<Pfn> &cache : _pcp) {
            for (const Pfn pfn : cache)
                _buddy.free(pfn, 0);
            _pcpCached -= cache.size();
            cache.clear();
        }
    }

    /** Fraction of the tier currently allocated, in [0,1]. */
    double
    utilization() const
    {
        return totalPages() == 0
            ? 0.0
            : static_cast<double>(usedPages()) /
              static_cast<double>(totalPages());
    }

    /** Pages currently resident for @p cls. */
    FrameCount
    residentPages(ObjClass cls) const
    {
        return _residentPages[static_cast<unsigned>(cls)];
    }

    /** Cumulative pages ever allocated here for @p cls. */
    FrameCount
    cumulativeAllocPages(ObjClass cls) const
    {
        return _cumAllocPages[static_cast<unsigned>(cls)];
    }

    /** Residency bookkeeping, used by TierManager only. */
    void
    noteAlloc(ObjClass cls, FrameCount pages)
    {
        _residentPages[static_cast<unsigned>(cls)] += pages;
        _cumAllocPages[static_cast<unsigned>(cls)] += pages;
    }

    void
    noteFree(ObjClass cls, FrameCount pages)
    {
        KLOC_ASSERT(_residentPages[static_cast<unsigned>(cls)] >= pages,
                    "resident page underflow for class %s",
                    objClassName(cls));
        _residentPages[static_cast<unsigned>(cls)] -= pages;
    }

    /** noteAlloc without the cumulative count (migration arrivals). */
    void
    noteArrive(ObjClass cls, FrameCount pages)
    {
        _residentPages[static_cast<unsigned>(cls)] += pages;
    }

  private:
    TierId _id;
    TierSpec _spec;
    bool _online = true;
    BuddyAllocator _buddy;
    FrameList _active;
    FrameList _inactive;
    /** Per-CPU caches of order-0 pfn blocks; empty = disabled. */
    std::vector<std::vector<Pfn>> _pcp;
    uint64_t _pcpCached = 0;
    FrameCount _residentPages[kNumObjClasses] = {};
    FrameCount _cumAllocPages[kNumObjClasses] = {};
};

} // namespace kloc

#endif // KLOC_MEM_TIER_HH
