/**
 * @file
 * Slab allocator in the style of Linux's kmem_cache, plus the
 * paper's KLOC allocation interface.
 *
 * Legacy mode matches stock kernel behaviour: objects of one size
 * class pack into shared, physically-addressed slab pages that can
 * never be relocated (§3.3). KLOC mode models the paper's new
 * interface (§4.4): object pages are VMA-backed and therefore
 * relocatable, and allocations carry a *group key* (the owning
 * knode) so that one KLOC's objects co-locate on pages that can be
 * migrated en masse with the KLOC.
 *
 * Per-CPU magazines model the kernel's per-CPU object caches: they
 * only affect the CPU cost of the fast path, while slab/page
 * accounting stays exact.
 */

#ifndef KLOC_ALLOC_SLAB_HH
#define KLOC_ALLOC_SLAB_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/intrusive_list.hh"
#include "mem/accessor.hh"
#include "mem/tier_manager.hh"

namespace kloc {

class KmemCache;

/** Handle to one slab-allocated object. */
struct SlabRef
{
    KmemCache *cache = nullptr;
    /** Backing slab page(s); identity-stable across migration. */
    Frame *frame = nullptr;
    /** Slab bookkeeping record (opaque to callers). */
    void *slab = nullptr;

    bool valid() const { return cache != nullptr; }
};

/** One object-size class, like struct kmem_cache. */
class KmemCache
{
  public:
    /** CPU cost of a magazine-hit allocation/free. */
    static constexpr Tick kFastPathCost{90};
    /** CPU cost of the slow path (slab list manipulation). */
    static constexpr Tick kSlowPathCost{350};
    /** Empty slabs retained per cache before frames are returned. */
    static constexpr unsigned kEmptyRetention = 2;
    /** Magazine capacity per CPU. */
    static constexpr unsigned kMagazineCap = 64;

    /**
     * @param name      Diagnostic name ("inode_cache", ...).
     * @param obj_size  Bytes per object.
     * @param cls       Coarse accounting class for backing frames.
     * @param order     Buddy order of each slab (0 = one page).
     */
    KmemCache(MemAccessor &mem, TierManager &tiers, std::string name,
              Bytes obj_size, ObjClass cls, unsigned order = 0);

    ~KmemCache();

    KmemCache(const KmemCache &) = delete;
    KmemCache &operator=(const KmemCache &) = delete;

    /**
     * Switch to the KLOC allocation interface: relocatable backing
     * pages, grouped by knode key. Existing slabs are unaffected.
     */
    void setKlocMode(bool enabled) { _klocMode = enabled; }

    /**
     * Allocate one object.
     * @param pref      Tier preference order for new slab pages.
     * @param group_key Grouping key (knode id) in KLOC mode; 0 for
     *                  the shared pool.
     * @return handle, or an invalid SlabRef when memory is exhausted.
     */
    SlabRef alloc(const TierPreference &pref, uint64_t group_key = 0);

    /** Release one object. */
    void free(SlabRef &ref);

    const std::string &name() const { return _name; }
    ObjClass objClass() const { return _cls; }
    uint64_t objsPerSlab() const { return _objsPerSlab; }

    /** Live objects allocated from this cache. */
    uint64_t liveObjects() const { return _liveObjects; }

    /** Cumulative allocations served. */
    uint64_t totalAllocs() const { return _totalAllocs; }

    /** Live slab pages (for footprint accounting). */
    uint64_t livePages() const { return _livePages; }

  private:
    struct Slab
    {
        Frame *frame = nullptr;
        uint64_t groupKey = 0;
        uint32_t inUse = 0;
        /** Membership in its group's partial list. */
        ListHook partialHook;
    };

    /** One group's partial slabs, oldest first. */
    using SlabList = IntrusiveList<Slab, &Slab::partialHook>;

    Slab *newSlab(const TierPreference &pref, uint64_t group_key);
    void releaseSlab(Slab *slab);
    /** Take @p slab off its group's partial list, dropping an emptied
     *  group other than the shared pool. */
    void unlinkPartial(Slab *slab);

    MemAccessor &_mem;
    TierManager &_tiers;
    std::string _name;
    Bytes _objSize;
    ObjClass _cls;
    unsigned _order;
    uint64_t _objsPerSlab;
    bool _klocMode = false;

    /** Partial (has free slots) slabs, keyed by group. Map nodes
     *  never move, so the lists inside stay put. */
    std::unordered_map<uint64_t, SlabList> _partial;
    /** Cached empty slabs awaiting reuse or release. */
    std::vector<Slab *> _emptyPool;

    std::deque<Slab> _slabPool;
    std::vector<Slab *> _freeSlabRecords;

    /** Per-CPU magazine depths (cost model only). */
    std::vector<unsigned> _magazine;

    uint64_t _liveObjects = 0;
    uint64_t _totalAllocs = 0;
    uint64_t _livePages = 0;
};

} // namespace kloc

#endif // KLOC_ALLOC_SLAB_HH
