/**
 * @file
 * KlocManager: the public KLOC API (Table 2) and its machinery —
 * the global kmap, per-CPU knode fast paths (§4.3), and the
 * asynchronous migration daemon (§4.4, §5).
 *
 * Subsystems (VFS, networking, block layer) call mapKnode() when an
 * inode is created, markActive()/markInactive() from their system
 * call paths, and addObject()/removeObject() from every kernel
 * object allocation site. Policies drive tiering through
 * runDemotePass() or let the built-in daemon do it.
 */

#ifndef KLOC_CORE_KLOC_MANAGER_HH
#define KLOC_CORE_KLOC_MANAGER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/intrusive_list.hh"
#include "core/knode.hh"
#include "kobj/kernel_heap.hh"
#include "mem/migration.hh"
#include "sim/daemon.hh"

namespace kloc {

/** Statistics exposed for the evaluation figures and ablations. */
struct KlocStats
{
    uint64_t knodesCreated = 0;
    uint64_t knodesDeleted = 0;
    uint64_t objectsTracked = 0;     ///< cumulative addObject calls
    uint64_t perCpuHits = 0;         ///< fast-path lookups (§4.3)
    uint64_t perCpuMisses = 0;       ///< fell through to the kmap
    uint64_t demotePasses = 0;
    uint64_t demotedPages = 0;
    uint64_t promotedPages = 0;
};

/**
 * The KLOC kernel subsystem. It owns what tracked frames hold, so the
 * MigrationEngine tells it of their moves and poisonings.
 */
class KlocManager : private FrameOwner
{
  public:
    /** Size of the knode structure charged per open inode (§7.1). */
    static constexpr Bytes kKnodeSize{64};
    /** Per-CPU fast-path list capacity. */
    static constexpr unsigned kPerCpuCap = 64;
    /** Fast-tier utilization above which the daemon demotes. */
    static constexpr double kHighWatermark = 0.92;
    /** Demotion target once the high watermark is crossed. */
    static constexpr double kLowWatermark = 0.85;
    /** Touch-driven promotion stops at this utilization. */
    static constexpr double kPromoteCeiling = 0.90;
    /** Closed knodes younger than this are not demoted yet. */
    static constexpr Tick kDemoteGrace = 20 * kMillisecond;
    /** Open knodes idle longer than this count as cold (§3.2). */
    static constexpr Tick kActiveIdleThreshold = 500 * kMillisecond;

    KlocManager(KernelHeap &heap, MigrationEngine &migrator);
    ~KlocManager();

    /**
     * sys_enable_kloc(): turn the abstraction on or off. While off,
     * mapKnode() returns nullptr and subsystems behave stock.
     */
    void setEnabled(bool enabled) { _enabled = enabled; }
    bool enabled() const { return _enabled; }

    /**
     * Tier order from fastest to slowest; index 0 is the target of
     * promotions, the last entry the target of demotions.
     */
    void setTierOrder(const TierPreference &order);

    TierId fastTier() const { return _tierOrder.front(); }
    TierId slowTier() const { return _tierOrder.back(); }

    // -- Table 2 API --------------------------------------------------------

    /**
     * map_knode(): create the knode for inode @p inode_id and insert
     * it into the kmap. Returns nullptr while KLOC is disabled.
     */
    Knode *mapKnode(uint64_t inode_id);

    /** Inode deleted: destroy its knode (object trees must be empty). */
    void unmapKnode(Knode *knode);

    /** kmap/fast-path lookup of the knode for @p inode_id. */
    Knode *findKnode(uint64_t inode_id);

    /** knode_add_obj(): start tracking @p obj under @p knode. */
    void addObject(Knode *knode, KernelObject *obj);

    /** Stop tracking @p obj (object about to be freed). */
    void removeObject(KernelObject *obj);

    /** itr_knode_slab(): call @p fn on slab-tree members in id order. */
    template <typename Fn>
    void
    forEachSlabObj(Knode *knode, Fn &&fn)
    {
        for (KernelObject *obj = knode->rbSlab.first(); obj != nullptr;
             obj = knode->rbSlab.next(obj)) {
            fn(obj);
        }
    }

    /** itr_knode_cache(): call @p fn on cache-tree members in id order. */
    template <typename Fn>
    void
    forEachCacheObj(Knode *knode, Fn &&fn)
    {
        for (KernelObject *obj = knode->rbCache.first(); obj != nullptr;
             obj = knode->rbCache.next(obj)) {
            fn(obj);
        }
    }

    /** Call @p fn on every live knode in inode order; charges nothing. */
    template <typename Fn>
    void
    forEachKnode(Fn &&fn)
    {
        for (Knode *knode = _kmap.first(); knode != nullptr;
             knode = _kmap.next(knode)) {
            fn(knode);
        }
    }

    /**
     * get_LRU_knodes(): up to @p max knodes, coldest first
     * (inactive before active, then by descending age).
     */
    std::vector<Knode *> lruKnodes(size_t max);

    /** find_cpu(): CPU that last accessed @p knode (-1 if none). */
    int findCpu(const Knode *knode) const { return knode->lastCpu; }

    /**
     * sys_kloc_memsize(): cap the pages KLOC-managed kernel objects
     * may occupy on @p tier (0 = no cap).
     */
    void setMemLimit(TierId tier, Bytes bytes);

    /**
     * True when @p tier's kernel-object residency meets or exceeds
     * its sys_kloc_memsize cap. Placement policies divert new
     * kernel allocations while this holds.
     */
    bool overMemLimit(TierId tier) const;

    /**
     * Select which object classes KLOC manages (Fig. 5c ablation):
     * frames of unmanaged classes are never migrated by KLOC.
     * @p mask has one bit per ObjClass value.
     */
    void setManagedClasses(uint32_t mask) { _managedClasses = mask; }

    /** True when KLOC tiering covers @p cls. */
    bool
    classManaged(ObjClass cls) const
    {
        return (_managedClasses >> static_cast<unsigned>(cls)) & 1u;
    }

    // -- ablation toggles (§4.3 experiments) --------------------------------

    /** Disable the per-CPU fast-path lists (kmap-only lookups). */
    void setUsePerCpuLists(bool enabled) { _usePerCpuLists = enabled; }

    /**
     * Route every object into a single per-knode tree instead of the
     * split rbtree-cache / rbtree-slab pair (§4.2.3 ablation).
     */
    void setSplitTrees(bool enabled) { _splitTrees = enabled; }

    /** Total rbtree node visits across kmap and all knode trees. */
    uint64_t treeNodesVisited() const;

    // -- hotness transitions ------------------------------------------------

    /**
     * A system call touched the file/socket: mark hot and refresh the
     * per-CPU fast path. Objects in slow memory come back one at a
     * time through maybePromoteOnTouch().
     */
    void markActive(Knode *knode);

    /**
     * The file/socket was closed (refcount zero): the whole KLOC is
     * cold; queue its objects for immediate demotion (§4.5).
     */
    void markInactive(Knode *knode);

    /**
     * Access-driven promotion: subsystem hot paths call this after
     * touching a tracked object whose KLOC is active. A re-touched
     * (referenced) frame sitting in slow memory is pulled into fast
     * memory when there is headroom — the targeted slow-to-fast
     * migration path that is "mainly used for cache pages" (§4.4).
     */
    void maybePromoteOnTouch(Frame *frame, Knode *knode);

    // -- migration daemon ---------------------------------------------------

    /**
     * Start the asynchronous daemon with the given wakeup period.
     * It drains the demote queue and enforces watermarks.
     */
    void startDaemon(Tick period) { _daemon.start(period); }

    void stopDaemon() { _daemon.stop(); }

    /** One demote pass (also callable directly by policies/tests). */
    uint64_t runDemotePass();

    /**
     * Watermark pass: when the fast tier is above the high
     * watermark, demote the coldest knodes' objects.
     */
    uint64_t runWatermarkPass();

    /**
     * Migrate every object of @p knode to @p dst; returns pages moved.
     * Charges a visit per tracked object, as the tree walk of §4.2.3
     * would, but visits only the residency lists that can hold an
     * object off @p dst.
     */
    uint64_t migrateKnodeObjects(Knode *knode, TierId dst);

    /**
     * The batch migrateKnodeObjects(@p knode, @p dst) moves, in its
     * order, into @p batch: each managed frame off @p dst that backs a
     * member, once, in the order a walk of rbtree-cache then
     * rbtree-slab (or of the one tree, unsplit) first meets it.
     * Charges nothing.
     */
    void collectBatch(Knode *knode, TierId dst,
                      std::vector<FrameRef> &batch);

    // -- accounting ---------------------------------------------------------

    const KlocStats &stats() const { return _stats; }

    void resetStats() { _stats = KlocStats{}; }

    /** Live knodes in the kmap. */
    uint64_t knodeCount() const { return _kmap.size(); }

    /**
     * Current KLOC metadata footprint in bytes (Table 6): knode
     * structures, 8-byte rbtree pointers per tracked object, per-CPU
     * list entries, and demote queue entries.
     */
    Bytes metadataBytes() const;

    /** Peak metadata footprint observed. */
    Bytes peakMetadataBytes() const { return _peakMetadata; }

    /** Entries on all per-CPU fast-path lists (kept as they change). */
    uint64_t perCpuEntries() const { return _perCpuEntries; }

    /** @p cpu's fast-path knode list, most recently used first. */
    const std::vector<Knode *> &
    perCpuList(unsigned cpu) const
    {
        return _perCpu[cpu];
    }

    KernelHeap &heap() { return _heap; }

  private:
    using KnodeTree = RbTree<Knode, &Knode::kmapHook, KnodeIdKey>;

    void touchKnodeMeta(Knode *knode, AccessType type);
    void cacheOnCpu(Knode *knode);
    void noteMetadata();

    /** The residency list a tracked @p obj of @p knode sits on. */
    static ObjList &residencyList(Knode *knode, KernelObject *obj);

    /** A tracked page object's frame moved: relink it to its tier. */
    void frameMoved(Frame *frame, TierId src) override;

    /**
     * When a tracked frame takes an uncorrectable error, mark the
     * owning KLOC damaged on data loss and schedule a soft-offline
     * that migrates its sibling objects away from the erroring tier.
     */
    void framePoisoned(Frame *frame, TierId origin_tier,
                       bool data_lost) override;
    /** The deferred half: move inode @p inode's KLOC off @p origin_tier. */
    void softOffline(uint64_t inode, TierId origin_tier);

    KernelHeap &_heap;
    MigrationEngine &_migrator;
    Machine &_machine;

    bool _enabled = false;
    TierPreference _tierOrder;

    /** Global kmap of all knodes (Fig. 1). */
    KnodeTree _kmap;

    /**
     * Per-CPU fast-path lists of recently used knodes (MRU-front).
     * A knode may appear on several CPUs' lists at once (§4.3) —
     * Linux's per-CPU coherence APIs keep them consistent, so here
     * they are plain non-owning vectors.
     */
    std::vector<std::vector<Knode *>> _perCpu;
    /** Sum of _perCpu list sizes, for metadataBytes(). */
    uint64_t _perCpuEntries = 0;

    /** Slab cache backing knode structures (always fast memory). */
    std::unique_ptr<KmemCache> _knodeCache;

    /** Demote work queue (by inode id; ids survive frees). */
    std::deque<uint64_t> _demoteQueue;

    /** Per-tier KLOC page caps (0 = uncapped). */
    std::vector<Bytes> _memLimits;

    /** A deferred soft-offline of one inode's KLOC. */
    struct SoftOffline : Event
    {
        SoftOffline(KlocManager &manager, uint64_t inode, TierId origin);
        static void fire(Event &event);

        KlocManager &manager;
        uint64_t inode;
        TierId origin;
    };

    /** Soft-offlines pending or running, by inode (at most one each).
     *  Map nodes never move, so a pending event stays put. */
    std::unordered_map<uint64_t, SoftOffline> _softOfflines;

    uint32_t _managedClasses = ~0u;
    bool _usePerCpuLists = true;
    bool _splitTrees = true;
    uint64_t _knodeTreeVisitsRetired = 0;  ///< from deleted knodes
    /** collectBatch's scratch: page objects, slab objects, and the
     *  slab objects grouped by frame. Collecting charges nothing, so
     *  no nested walk can reach them mid-use. */
    std::vector<KernelObject *> _walkPages;
    std::vector<KernelObject *> _walkSlabs;
    std::vector<KernelObject *> _walkByFrame;
    /** Page objects whose addObject is charging its tree descent,
     *  innermost last. */
    std::vector<const KernelObject *> _midTrack;
    KlocStats _stats;
    uint64_t _trackedObjects = 0;   ///< live tracked objects
    Bytes _peakMetadata{};
    Daemon _daemon{_machine};
};

} // namespace kloc

#endif // KLOC_CORE_KLOC_MANAGER_HH
