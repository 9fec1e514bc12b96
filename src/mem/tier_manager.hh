/**
 * @file
 * TierManager: the machine's physical memory — every tier, every
 * live Frame, and the accounting behind Figs. 2a/2b/2d and 5b.
 *
 * A live frame is always on its tier's active or inactive LRU list:
 * alloc() links it, rehome() carries it along, free() unlinks it.
 *
 * Placement policy is expressed by the caller through the tier
 * preference order passed to alloc(); the manager walks it until a
 * tier has room. Every frame move — policy migration, Nomad's
 * shadow-keeping promotion and shadow-reusing demotion, hwpoison
 * evacuation — is one call to rehome(), which re-homes a Frame in
 * place behind a single gate ladder so kernel objects holding Frame*
 * never see a pointer change.
 */

#ifndef KLOC_MEM_TIER_MANAGER_HH
#define KLOC_MEM_TIER_MANAGER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/inline_vec.hh"
#include "base/stats.hh"
#include "mem/frame_arena.hh"
#include "mem/tier.hh"
#include "sim/daemon.hh"
#include "sim/machine.hh"

namespace kloc {

class MigrationEngine;

/** Why (or that) a single-frame migration attempt resolved. */
enum class MigrateResult : uint8_t
{
    Ok = 0,
    NotRelocatable,  ///< the frame may never move
    Pinned,          ///< in-flight I/O holds the frame in place
    Damped,          ///< ping-pong damping retains the page (§4.5)
    SameTier,        ///< already resident on the destination
    Offline,         ///< destination tier is offline
    NoSpace,         ///< destination allocator is exhausted
    Poisoned,        ///< poisoned in place, or an error fired mid-copy
};

const char *migrateResultName(MigrateResult result);

/** Where a re-homed frame's bytes land (TierManager::rehome). */
enum class Landing : uint8_t
{
    Fresh = 0,  ///< a newly allocated block on the destination
    Shadow,     ///< the frame's own shadow copy (no allocation)
};

/** What the block a frame re-homes off becomes. */
enum class SourceFate : uint8_t
{
    Free = 0,    ///< returned to the allocator
    KeepShadow,  ///< kept allocated as a Nomad shadow copy
    Quarantine,  ///< retired for good: hwpoison containment
};

/** Where a frame poisoning surfaced (FramePoison arg). */
enum class PoisonOrigin : uint8_t
{
    Access = 0,  ///< CPU access (MCE-style synchronous fault)
    Scan,        ///< LRU scan touched the bad cells
    Copy,        ///< migration copy read the bad cells
    Storm,       ///< scheduled poison_storm burst
};

const char *poisonOriginName(PoisonOrigin origin);

/** How a poisoned frame's bytes were recovered (MemRecover arg). */
enum class RecoverySource : uint8_t
{
    Shadow = 0,  ///< clean Nomad shadow copy re-adopted (free)
    Reread,      ///< clean page-cache page re-read from the device
};

const char *recoverySourceName(RecoverySource source);

/** Why poisoned bytes could not be recovered (DataLoss arg). */
enum class DataLossReason : uint8_t
{
    Unmovable = 0,  ///< pinned or non-relocatable: poisoned in place
    NoSource,       ///< no shadow and no re-readable backing
    RereadFailed,   ///< device re-read exhausted its retries
    NoSpace,        ///< no online tier could host the evacuation
};

const char *dataLossReasonName(DataLossReason reason);

/** Why a Nomad shadow copy was released (ShadowDrop arg). */
enum class ShadowDropReason : uint8_t
{
    Stale = 0,   ///< the fast copy was written since promotion
    FrameFreed,  ///< the owning frame was freed
    FrameMoved,  ///< the frame migrated somewhere else
    Pressure,    ///< shadow budget exceeded
    Offline,     ///< the shadow's tier went offline
    PolicyStop,  ///< the owning policy was stopped/replaced
};

const char *shadowDropReasonName(ShadowDropReason reason);

/** Where a frame's Nomad shadow copy sits (TierManager::shadowOf). */
struct ShadowRecord
{
    TierId tier = kInvalidTier;
    Pfn pfn = kInvalidPfn;
    Tick since{};  ///< promotion time (staleness check)
};

/**
 * Per-tier health: an error-rate EWMA with hysteresis. Transitions
 * are always adjacent (healthy ↔ degraded ↔ failed); the thresholds
 * live in TierManager and are mirrored by the InvariantChecker's
 * tier_health rule.
 */
enum class TierHealth : uint8_t
{
    Healthy = 0,
    Degraded,  ///< error rate high: policies deprioritize the tier
    Failed,    ///< error rate critical: the tier auto-drains offline
};

const char *tierHealthName(TierHealth health);

/** Owner of all tiers and frames. */
class TierManager
{
    /** Installs itself as _migrator for its lifetime. */
    friend class MigrationEngine;

  public:
    /** Migration count beyond which a page is retained (no demote). */
    static constexpr uint8_t kRetainThreshold = 8;

    // Health EWMA tuning. Every recorded error adds kErrorScore to
    // the tier's score; every health tick decays the score by 25%.
    // The up/down threshold pairs (degrade at 4000 / recover at 1000,
    // fail at 16000 / readmit at 6000) overlap nowhere, which is the
    // hysteresis: a tier sitting at a threshold cannot oscillate.
    // The InvariantChecker's tier_health rule mirrors these literals.
    static constexpr uint64_t kErrorScore = 1000;
    static constexpr uint64_t kDegradeScore = 4000;
    static constexpr uint64_t kRecoverScore = 1000;
    static constexpr uint64_t kFailScore = 16000;
    static constexpr uint64_t kReadmitScore = 6000;
    static constexpr Tick kHealthTickPeriod = 10 * kMillisecond;

    explicit TierManager(Machine &machine) : _machine(machine)
    {
        _healthDaemon.setBody([this](Tick period) {
            healthTick();
            return period;
        });
    }

    /** Create a tier (also registered with the machine's MemoryModel). */
    TierId addTier(const TierSpec &spec);

    /**
     * Per-CPU frame lists (Linux pcp): order-0 allocations and frees
     * go through a cache keyed by the current CPU, refilled and
     * flushed in Tier::kPcpBatch blocks. On by default — this is the
     * allocator configuration the benches baseline against; the
     * toggle exists for the ablation bench and for tests that want
     * raw buddy placement. Disabling drains every cache.
     */
    void setUsePerCpuFrameLists(bool enabled);

    bool usePerCpuFrameLists() const { return _usePcpLists; }

    Tier &tier(TierId id);
    const Tier &tier(TierId id) const;
    size_t tierCount() const { return _tiers.size(); }

    /**
     * Allocate a 2^order-page frame for @p cls, trying tiers in
     * @p preference order. The frame starts at the head of its
     * tier's inactive list, unreferenced.
     * @return the frame, or nullptr when every tier is full.
     */
    Frame *alloc(unsigned order, ObjClass cls, bool relocatable,
                 const TierPreference &preference);

    /** Unlink @p frame from its LRU list, release it and record its
     *  lifetime. */
    void free(Frame *frame);

    /**
     * Re-home @p frame onto @p dst — the one way a frame moves. Space
     * bookkeeping only: the MigrationEngine emits the trace bracket and
     * charges copy costs. The frame keeps its address, so kernel
     * objects holding Frame* never see a pointer change. A moved
     * frame goes to the head of the destination's list that matches
     * its active/inactive standing.
     *
     * One gate ladder decides, in order: relocatable, pinned, same
     * tier, ping-pong damping, destination online, poisoned — then,
     * for a fresh landing, destination space. Containment
     * (@p source == Quarantine) skips damping, which is no policy
     * decision, and is the only move a poisoned frame may make: its
     * bad block must end quarantined, never back in the allocator.
     *
     * @p landing picks where the bytes land: a fresh block allocated
     * on @p dst, or the frame's own shadow copy, which must sit on
     * @p dst. A fresh landing strands any shadow (dropped as
     * FrameMoved). @p source picks what the vacated block becomes:
     * freed; kept allocated as the frame's new Nomad shadow, which no
     * allocation can claim until the shadow is reused or dropped
     * (fresh landing onto a shadow-less frame only); or quarantined,
     * which also scrubs the poison flag — the caller emits
     * FrameQuarantine via noteQuarantined() after its bracket, so the
     * checker sees the frame leave the block before the block is
     * retired.
     */
    MigrateResult rehome(Frame *frame, TierId dst, Landing landing,
                         SourceFate source);

    /** Emit FrameQuarantine for a block rehome() quarantined. */
    void noteQuarantined(TierId tier, Pfn pfn, unsigned order);

    /**
     * Release @p frame's shadow copy: frees the shadow buddy pages,
     * emits ShadowDrop, clears the frame's shadow flag and erases its
     * record. No-op without a shadow.
     */
    void dropShadow(Frame *frame, ShadowDropReason reason);

    /** Drop every live shadow (policy teardown hygiene). */
    void dropAllShadows(ShadowDropReason reason);

    /** Drop every shadow resident on @p id (tier offlining). */
    void dropShadowsOn(TierId id, ShadowDropReason reason);

    /**
     * Take @p id offline or bring it back. Offlining only flips the
     * flag and emits the trace event — draining resident frames is
     * the MigrationEngine's job (it owns cost charging).
     */
    void setTierOnline(TierId id, bool online);

    /** Live frames currently resident on @p id, in stable (frame
     *  pool) order — the drain work-list for offlining. */
    std::vector<FrameRef> collectFramesOn(TierId id);

    /**
     * Health of @p id. Every transition emits TierHealth and then
     * tells the live MigrationEngine, if any, which drains failed
     * tiers and readmits healed ones.
     */
    TierHealth health(TierId id) const;

    /** Current (decayed-at-last-tick) error score of @p id. */
    uint64_t healthScore(TierId id) const;

    /**
     * Record one uncorrectable memory error on @p id: bumps the
     * error EWMA, applies any upward health transitions, and arms
     * the periodic decay tick. Error-free runs never schedule the
     * tick, so their traces are untouched.
     */
    void recordTierError(TierId id);

    /**
     * Reorder @p preference by health: healthy tiers first, degraded
     * next, failed last, preserving relative order within each band.
     */
    TierPreference preferHealthy(const TierPreference &preference) const;

    /** Pages quarantined across all tiers. */
    uint64_t quarantinedPages() const;

    /** Live frames across all tiers. */
    uint64_t liveFrames() const { return _liveFrames; }

    /** Pages currently held by non-exclusive shadow copies. */
    uint64_t shadowPages() const { return _shadowPages; }

    /** Where @p frame's shadow copy sits; nullptr without one. */
    const ShadowRecord *
    shadowOf(const Frame *frame) const
    {
        if (!frame->hasShadow())
            return nullptr;
        const auto it = _shadows.find(frame);
        KLOC_ASSERT(it != _shadows.end(), "shadowed frame has no record");
        return &it->second;
    }

    /** @p frame has a shadow and it still matches memory: no write
     *  since the promotion. */
    bool
    shadowClean(const Frame *frame) const
    {
        const ShadowRecord *shadow = shadowOf(frame);
        return shadow != nullptr && frame->lastWriteTick <= shadow->since;
    }

    /** Shadow records held: one per live frame with a shadow. */
    size_t shadowRecords() const { return _shadows.size(); }

    /** Cumulative shadow copies released, by any reason. */
    uint64_t shadowDrops() const { return _shadowDrops; }

    /** Cumulative page allocations per class over every tier
     *  (Fig. 2a/2b footprints). */
    uint64_t
    cumulativeAllocPages(ObjClass cls) const
    {
        uint64_t pages = 0;
        for (const auto &tier : _tiers)
            pages += tier->cumulativeAllocPages(cls).value();
        return pages;
    }

    /** Lifetime distribution per class in Ticks (Fig. 2d). */
    const Histogram &
    lifetimeHist(ObjClass cls) const
    {
        return _lifetimes[static_cast<unsigned>(cls)];
    }

  private:
    /** Per-tier health machinery state. */
    struct HealthState
    {
        TierHealth health = TierHealth::Healthy;
        uint64_t score = 0;
        Tick lastDecay{};
    };

    void quarantineBlock(Tier &t, Pfn pfn, unsigned order);
    void transitionHealth(TierId id, TierHealth to);
    void applyUpwardTransitions(TierId id);
    /** One decay step; stops the health daemon once every tier is
     *  at rest. */
    void healthTick();

    /** Block alloc/free routed through the current CPU's pcp cache
     *  for order 0; higher orders go straight to the buddy. */
    Pfn allocBlock(Tier &t, unsigned order);
    void freeBlock(Tier &t, Pfn pfn, unsigned order);

    Machine &_machine;
    std::vector<std::unique_ptr<Tier>> _tiers;
    std::vector<HealthState> _health;
    bool _usePcpLists = true;

    // Frame pool with stable addresses; freed frames recycle LIFO.
    FrameArena _frameArena;
    std::vector<Frame *> _freeFrameObjs;
    uint64_t _liveFrames = 0;
    uint64_t _shadowPages = 0;
    uint64_t _shadowDrops = 0;
    /**
     * The shadow copy of each frame that has one, kept off Frame so a
     * touch does not carry it. Only looked up, never iterated: the
     * walks that drop shadows go over the frame arena in creation
     * order.
     */
    std::unordered_map<const Frame *, ShadowRecord> _shadows;

    Histogram _lifetimes[kNumObjClasses];

    /** The engine told of every health transition; see
     *  MigrationEngine's constructor. */
    MigrationEngine *_migrator = nullptr;
    Daemon _healthDaemon{_machine};
};

} // namespace kloc

#endif // KLOC_MEM_TIER_MANAGER_HH
