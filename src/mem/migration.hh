/**
 * @file
 * Page migration engine.
 *
 * Charges the cost of moving frames between tiers: per-page copy
 * traffic (read from source, write to destination at raw media
 * speed) plus the fixed kernel overhead of unmap/TLB-shootdown/remap.
 * Nimble's parallelised page copy (§6, Table 5) is modelled as a
 * divisor on copy traffic; the fixed per-page kernel work does not
 * parallelise.
 *
 * Every move — a policy batch, a KLOC knode, Nomad's transactional
 * promotion, a tier drain, hwpoison evacuation — runs through one
 * commit path over TierManager::rehome(): the frame's own state picks
 * where it lands (a clean shadow on the destination is re-adopted for
 * free, anything else copies into a fresh block), one bracket emits
 * MigStart … MigComplete around the LRU reset, one table tallies every
 * MigrateResult into MigrationStats, and one tail charges the batch's
 * cost across the copy width.
 *
 * Transient destination exhaustion (the target tier momentarily out
 * of frames, including injected faults) is retried with bounded
 * exponential backoff; a frame whose move is abandoned stays where
 * it is and is rotated to the hot end of its LRU list so the next
 * scan picks different candidates. Every failure is accounted per
 * reason in MigrationStats.
 *
 * The engine also drives tier offlining: offlineTier() flips the
 * tier's online flag and drains its resident frames to the remaining
 * online tiers, leaving pinned, non-relocatable and poisoned-in-place
 * frames stranded until they are released.
 *
 * Direction accounting (fast->slow vs. slow->fast) keys Fig. 5b.
 */

#ifndef KLOC_MEM_MIGRATION_HH
#define KLOC_MEM_MIGRATION_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "fault/fault.hh"
#include "mem/lru.hh"
#include "mem/tier_manager.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"

namespace kloc {

/** Counters describing all migrations performed so far. */
struct MigrationStats
{
    uint64_t attempts = 0;
    uint64_t movedFrames = 0;     ///< attempts that moved a frame
    uint64_t migratedPages = 0;
    uint64_t demotedPages = 0;    ///< toward slower tiers (higher id)
    uint64_t promotedPages = 0;   ///< toward faster tiers (lower id)
    uint64_t failedNotRelocatable = 0;
    uint64_t failedNoSpace = 0;   ///< abandons after retries exhausted
    uint64_t failedStale = 0;     ///< freed before the move happened
    uint64_t failedPinned = 0;    ///< in-flight I/O held the frame
    uint64_t failedDamped = 0;    ///< ping-pong damping retained it
    uint64_t failedOffline = 0;   ///< destination tier was offline
    uint64_t failedSameTier = 0;  ///< already resident on destination
    uint64_t failedPoisoned = 0;  ///< poisoned in place or mid-copy
    uint64_t noSpaceRetries = 0;  ///< backoff retries (not failures)
    uint64_t txnBegins = 0;       ///< transactional copies opened
    uint64_t txnCommits = 0;      ///< transactional copies committed
    uint64_t txnAbortedWrite = 0; ///< aborted on recent write traffic
    uint64_t txnAbortedNoSpace = 0; ///< aborted on destination pressure
    uint64_t txnAbortedBlocked = 0; ///< aborted on a frame obstacle
    uint64_t shadowMakes = 0;     ///< promotions that kept a shadow
    uint64_t shadowFreeDemotions = 0; ///< demotions served by a shadow
    uint64_t migratedPagesByClass[kNumObjClasses] = {};

    /**
     * Every attempt resolves into exactly one outcome counter. The
     * conformance suite asserts this identity; failedStale sits
     * outside it (stale frames are rejected before an attempt opens)
     * and txnAbortedNoSpace double-counts into failedNoSpace by
     * design (a transactional NoSpace abort is also an abandonment).
     */
    uint64_t
    resolvedAttempts() const
    {
        return movedFrames + failedNotRelocatable + failedPinned +
               failedDamped + failedSameTier + failedOffline +
               failedPoisoned + failedNoSpace + noSpaceRetries +
               txnAbortedWrite;
    }
};

/**
 * One exported MigrationStats counter: its stat name (System::snapshot
 * prefixes "migration.") and member. A row naming a MigrateResult is
 * that outcome's tally counter; every result has exactly one row.
 */
struct MigrationStatField
{
    const char *name;
    uint64_t MigrationStats::*member;
    std::optional<MigrateResult> tallies;
};

/** Every MigrationStats counter, in export order. */
inline constexpr MigrationStatField kMigrationStatFields[] = {
    {"attempts", &MigrationStats::attempts, std::nullopt},
    {"moved_frames", &MigrationStats::movedFrames, MigrateResult::Ok},
    {"pages", &MigrationStats::migratedPages, std::nullopt},
    {"demoted", &MigrationStats::demotedPages, std::nullopt},
    {"promoted", &MigrationStats::promotedPages, std::nullopt},
    {"failed_not_relocatable", &MigrationStats::failedNotRelocatable,
     MigrateResult::NotRelocatable},
    {"failed_no_space", &MigrationStats::failedNoSpace,
     MigrateResult::NoSpace},
    {"failed_stale", &MigrationStats::failedStale, std::nullopt},
    {"failed_pinned", &MigrationStats::failedPinned, MigrateResult::Pinned},
    {"failed_damped", &MigrationStats::failedDamped, MigrateResult::Damped},
    {"failed_offline", &MigrationStats::failedOffline,
     MigrateResult::Offline},
    {"failed_same_tier", &MigrationStats::failedSameTier,
     MigrateResult::SameTier},
    {"failed_poisoned", &MigrationStats::failedPoisoned,
     MigrateResult::Poisoned},
    {"no_space_retries", &MigrationStats::noSpaceRetries, std::nullopt},
    {"txn_begins", &MigrationStats::txnBegins, std::nullopt},
    {"txn_commits", &MigrationStats::txnCommits, std::nullopt},
    {"txn_aborted_write", &MigrationStats::txnAbortedWrite, std::nullopt},
    {"txn_aborted_no_space", &MigrationStats::txnAbortedNoSpace,
     std::nullopt},
    {"txn_aborted_blocked", &MigrationStats::txnAbortedBlocked,
     std::nullopt},
    {"shadow_makes", &MigrationStats::shadowMakes, std::nullopt},
    {"shadow_free_demotions", &MigrationStats::shadowFreeDemotions,
     std::nullopt},
};

/** Counters describing the hwpoison containment machinery. */
struct PoisonStats
{
    uint64_t poisonedFrames = 0;   ///< FramePoison events emitted
    uint64_t stormFrames = 0;      ///< poisoned by poison_storm bursts
    uint64_t recoveredShadow = 0;  ///< recovered from a clean shadow
    uint64_t recoveredReread = 0;  ///< recovered by device re-read
    uint64_t dataLoss = 0;         ///< DataLoss events emitted
};

/** Why a transactional copy aborted (MigTxnAbort arg). */
enum class TxnAbortReason : uint8_t
{
    WriteRecent = 0, ///< write traffic dirtied the page mid-copy
    NoSpace,         ///< destination allocator exhausted
    Blocked,         ///< pinned / non-relocatable / damped / offline
};

const char *txnAbortReasonName(TxnAbortReason reason);

/**
 * The layer that owns what tracked frames hold (frames whose
 * Frame::owner is set): it hears of each such frame's committed
 * moves, and of every poisoning once containment resolves.
 */
class FrameOwner
{
  public:
    /**
     * A successful rehome() moved @p frame, tracked, off @p src;
     * `frame->tier` is where it landed. Must not charge time.
     */
    virtual void frameMoved(Frame *frame, TierId src) = 0;

    /**
     * @p frame was poisoned and containment resolved: @p origin_tier
     * is where the error struck (the frame may have evacuated
     * elsewhere since) and @p data_lost says whether the bytes
     * survived. Called for every poisoned frame, tracked or not.
     */
    virtual void framePoisoned(Frame *frame, TierId origin_tier,
                               bool data_lost) = 0;

  protected:
    ~FrameOwner() = default;
};

/** Moves batches of frames between tiers and charges their cost. */
class MigrationEngine
{
  public:
    /** Fixed kernel work per migrated page (unmap, TLB, remap). */
    static constexpr Tick kPerPageOverhead{1500};

    /** Retries after a NoSpace failure before abandoning the move. */
    static constexpr unsigned kMaxNoSpaceRetries = 3;

    /** First retry delay; doubles per attempt. */
    static constexpr Tick kRetryBackoffBase = 50 * kMicrosecond;

    /** Installs the engine as @p lru's containment authority and
     *  @p tiers' health drain authority; one engine per TierManager. */
    MigrationEngine(Machine &machine, TierManager &tiers, LruEngine &lru);

    /** Uninstalls the engine: poisonings go uncontained and health
     *  transitions undrained, exactly as on an engine-less stack. */
    ~MigrationEngine();

    /**
     * Parallel page-copy width (Nimble's optimisation). 1 means the
     * stock kernel's serial copy.
     */
    void setParallelism(unsigned width);

    unsigned parallelism() const { return _parallelism; }

    /**
     * Migrate every still-valid frame in @p batch to @p dst.
     * A frame whose clean shadow copy already sits on @p dst (its tier
     * online) re-homes into it for just the fixed remap overhead — no
     * copy traffic (ShadowReuse, shadowFreeDemotions); any other shadow
     * is dropped up front (Offline, FrameMoved or Stale) and the frame
     * takes the copy path. Frames without shadows — every policy but
     * Nomad — always copy.
     * Cost is charged once, after the whole batch has moved, so no
     * asynchronous work can free batch members mid-flight — except
     * during retry backoff, which charges time and re-validates the
     * frame afterwards.
     * @return pages successfully moved.
     */
    uint64_t migrate(const std::vector<FrameRef> &batch, TierId dst);

    /** migrate() for a single frame. */
    bool migrateOne(Frame *frame, TierId dst);

    /**
     * Nomad-style transactional promotion of @p batch to @p dst.
     *
     * Each frame's copy opens a MigTxnBegin window. The copy aborts
     * cheaply — charging only the partial source read, never the
     * destination write — when the page saw write traffic within
     * @p write_recency_window (it would be dirtied mid-copy), when
     * the destination proves exhausted, or when a frame-local
     * obstacle blocks the move. A committed copy keeps the source
     * pages allocated as a non-exclusive shadow while the shadow
     * budget allows, so a later clean demotion is a free remap.
     * @return pages successfully promoted.
     */
    uint64_t promoteTransactional(const std::vector<FrameRef> &batch,
                                  TierId dst, Tick write_recency_window);

    /**
     * Cap on pages held by shadow copies; promotions beyond it fall
     * back to plain exclusive moves. Unlimited by default.
     */
    void setShadowBudget(FrameCount pages) { _shadowBudget = pages.value(); }

    /**
     * Take @p id offline: no new allocations land there, and its
     * resident relocatable frames are drained to the remaining
     * online tiers (ascending id order). Pinned, non-relocatable or
     * poisoned-in-place frames stay stranded on the offline tier
     * until released.
     * @return frames left stranded.
     */
    uint64_t offlineTier(TierId id);

    /** Bring @p id back online. */
    void onlineTier(TierId id);

    /**
     * Schedule the fault spec's tier offline/online events and
     * poison-storm bursts on the machine's event queue. Call once
     * after configuring faults.
     */
    void scheduleTierEvents();

    /**
     * Contain an uncorrectable error on @p frame (hwpoison).
     *
     * The frame's tier records the error against its health EWMA and
     * recovery is attempted in order: a clean Nomad shadow is
     * re-adopted for free; a re-readable page-cache page is evacuated
     * to a fresh frame and re-read through the block layer; otherwise
     * a SIGBUS-like DataLoss is emitted and the owner is notified.
     * Either way the poisoned block ends quarantined — immediately
     * when the frame evacuates, or on free when it is stuck in place
     * (pinned, non-relocatable, or nowhere to go).
     *
     * Idempotent: an already-poisoned frame is left alone.
     * @return true when the frame's bytes were recovered.
     */
    bool poisonFrame(Frame *frame, PoisonOrigin origin);

    /**
     * Register the page-cache re-read recovery path. @p probe
     * answers whether @p frame's bytes can be re-read from backing
     * storage (clean page-cache page); @p reread performs the read
     * through the block layer, charging device time, and reports
     * success. The FileSystem registers itself at construction.
     */
    void
    setRereadHook(bool (*probe)(void *, Frame *),
                  bool (*reread)(void *, Frame *), void *ctx)
    {
        _rereadProbe = probe;
        _rereadFn = reread;
        _rereadCtx = ctx;
    }

    /**
     * Register the owner of tracked frames' contents (the KLOC
     * manager), or nullptr to unregister. One slot: a second owner
     * replaces the first.
     */
    void setFrameOwner(FrameOwner *owner) { _frameOwner = owner; }

    /**
     * TierManager's upcall on every health transition of @p tier:
     * failed tiers drain, readmitted ones return, both from the event
     * queue.
     */
    void onTierHealth(TierId tier, TierHealth from, TierHealth to);

    const MigrationStats &stats() const { return _stats; }

    const PoisonStats &poisonStats() const { return _poisonStats; }

    void resetStats() { _stats = MigrationStats{}; }

  private:
    /** Copy and remap work accumulated over a batch, charged once. */
    struct MoveCost
    {
        Tick copy{};
        Tick fixed{};
    };

    /**
     * Move one frame: reuse a clean shadow on @p dst, else draw the
     * copy fault sites and copy into a fresh block, leaving the source
     * to @p source (Free or KeepShadow). Commits via commitMove; no
     * tally, no charging, no retry. A Poisoned result means the copy
     * fault fired or the frame is poisoned in place — the caller runs
     * containment, which is a no-op for the latter.
     */
    MigrateResult moveFrame(Frame *frame, TierId dst, SourceFate source,
                            MoveCost &cost);

    /**
     * The commit of a successful rehome() from (@p src, @p src_pfn):
     * FrameOwner::frameMoved for a tracked frame, ShadowReuse when it
     * landed in its shadow, the MigStart …
     * MigComplete bracket (rehome() already moved the frame's LRU
     * membership; a demotion deactivates it inside), ShadowMake when
     * the source was kept, FrameQuarantine when it was quarantined;
     * plus its cost and, for every move but containment, the
     * moved-pages accounting.
     */
    void commitMove(Frame *frame, TierId src, Pfn src_pfn, Landing landing,
                    SourceFate source, MoveCost &cost);

    /** Bump the one MigrationStats counter that tallies @p result. */
    void tally(MigrateResult result);

    /** Charge @p cost: migration threads run on dedicated CPUs (§5),
     *  so copy traffic and remap work spread across the copy width. */
    void charge(const MoveCost &cost);

    /**
     * moveFrame plus NoSpace retry/backoff/abandon handling, the
     * tally, and containment of a copy poisoning.
     * @p fail_fast suppresses retries (the caller already proved the
     * destination exhausted within this batch).
     * @return true when the frame moved.
     */
    bool moveWithRetry(const FrameRef &ref, TierId dst, MoveCost &cost,
                       bool &fail_fast);

    /** Transactional copy of one frame; see promoteTransactional. */
    bool promoteOneTransactional(Frame *frame, TierId dst,
                                 Tick write_recency_window,
                                 MoveCost &cost, bool &fail_fast);

    /** Shadow-recovery leg of poisonFrame; true = bytes recovered. */
    bool recoverViaShadow(Frame *frame, MoveCost &cost);

    /**
     * Evacuate-then-reread leg of poisonFrame; true = bytes
     * recovered. Emits its own DataLoss when evacuation finds no
     * space or the device read fails.
     */
    bool recoverViaReread(Frame *frame, MoveCost &cost);

    /** Emit DataLoss for @p frame and bump the counter. */
    void emitDataLoss(Frame *frame, DataLossReason reason);

    /** One poison_storm burst on @p tier. */
    void firePoisonStorm(TierId tier, uint64_t frames);

    /** What a queued TierEvent does when it fires. */
    enum class TierAction : uint8_t
    {
        Offline,
        Online,
        Storm,
        HealthDrain,
        HealthReadmit,
    };

    /** A queued tier action: a fault spec's tier event or storm
     *  burst, or a health drain or readmission. */
    struct TierEvent : Event
    {
        explicit TierEvent(MigrationEngine &engine);
        static void fire(Event &event);

        MigrationEngine &engine;
        TierAction action{};
        TierId tier{};
        uint64_t frames = 0;  ///< Storm only
    };

    /** Queue @p action on @p tier at @p when, on an idle node. */
    void post(Tick when, TierAction action, TierId tier,
              uint64_t frames = 0);

    /** Drain @p tier if its health still reads Failed at fire time. */
    void drainFailedTier(TierId tier);

    /** Bring back @p tier if this engine drained it and it healed. */
    void readmitTier(TierId tier);

    Machine &_machine;
    TierManager &_tiers;
    LruEngine &_lru;
    unsigned _parallelism = 1;
    uint64_t _shadowBudget = ~0ULL;
    MigrationStats _stats;
    PoisonStats _poisonStats;
    bool (*_rereadProbe)(void *, Frame *) = nullptr;
    bool (*_rereadFn)(void *, Frame *) = nullptr;
    void *_rereadCtx = nullptr;
    FrameOwner *_frameOwner = nullptr;
    /** Tiers this engine offlined for health (vs. operator events),
     *  so readmission never onlines an operator-offlined tier. */
    std::vector<uint8_t> _healthOfflined;
    /** Nodes of queued tier actions, reused once idle; a deque never
     *  moves a pending node. */
    std::deque<TierEvent> _tierEvents;
};

} // namespace kloc

#endif // KLOC_MEM_MIGRATION_HH
