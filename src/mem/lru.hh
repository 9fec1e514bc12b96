/**
 * @file
 * Linux-style two-list LRU engine over each tier's frames.
 *
 * New frames enter the inactive list; a frame referenced twice is
 * promoted to the active list; periodic scans age the lists and yield
 * demotion candidates (cold, unreferenced, inactive frames) and
 * promotion candidates (active frames on slow tiers).
 *
 * Scan cost follows the paper's measurement of 2 seconds per million
 * pages (§3.3) — the reason scan-driven policies cannot track
 * kernel objects whose lifetimes are tens of milliseconds.
 */

#ifndef KLOC_MEM_LRU_HH
#define KLOC_MEM_LRU_HH

#include <cstdint>
#include <vector>

#include "mem/tier_manager.hh"
#include "sim/machine.hh"

namespace kloc {

/**
 * Result of one LRU scan pass over a tier. Policies that scan every
 * period keep one ScanResult alive and pass it back in — clear()
 * empties the candidate list but keeps its capacity, so steady-state
 * scanning allocates nothing.
 */
struct ScanResult
{
    /** Cold frames eligible for demotion/reclaim, coldest first. */
    std::vector<FrameRef> demoteCandidates;
    /** Frames scanned (for cost accounting and stats). */
    uint64_t scanned = 0;
    /** Pages visited: an order-k frame counts 2^k (cost accounting). */
    uint64_t pagesVisited = 0;

    void
    clear()
    {
        demoteCandidates.clear();
        scanned = 0;
        pagesVisited = 0;
    }
};

/** Two-list LRU bookkeeping and scanning. */
class LruEngine
{
  public:
    /** Cost of visiting one frame during a scan (2 s / 1 M pages). */
    static constexpr Tick kScanCostPerPage{2000};

    LruEngine(Machine &machine, TierManager &tiers);

    /**
     * Containment callback for frame_poison_access/_scan faults. The
     * access and scan paths consult the injector only while a hook is
     * registered (the MigrationEngine registers itself), so an
     * LRU-only stack draws no fault RNG. The hook may evacuate the
     * frame — re-homing it, moving its list membership, or leaving it
     * poisoned in place — so callers treat the frame as re-homed
     * after the call.
     */
    void
    setPoisonHook(void (*fn)(void *, Frame *, PoisonOrigin), void *ctx)
    {
        _poisonHook.fn = fn;
        _poisonHook.ctx = ctx;
    }

    /**
     * Frame lifecycle notifications. Alloc/free arrive automatically
     * via TierManager observers; access and migration notifications
     * are the caller's responsibility.
     *
     * onAccessed runs on every simulated reference. When no poison
     * consult is due, the touches that only set the referenced bit
     * (unlinked, active, or inactive and unreferenced frames) finish
     * inline; promotion and the consult take the out-of-line path.
     */
    void
    onAccessed(Frame *frame)
    {
        frame->lastAccessTick = _machine.now();
        const bool consult = _poisonHook.fn != nullptr &&
                             !frame->poisoned && _machine.faults().armed();
        const bool promote = frame->lruHook.linked() &&
                             !frame->onActiveList && frame->referenced;
        if (consult || promote) {
            onAccessedSlow(frame);
            return;
        }
        if (frame->lruHook.linked())
            frame->referenced = true;
    }

    /**
     * True when a touch that consults no poison site leaves @p frame's
     * LRU standing as it is: the frame is on no list, or it is active
     * and already referenced. Such a touch moves only the frame's
     * access timestamp.
     */
    static bool
    touchSettled(const Frame *frame)
    {
        return !frame->lruHook.linked() ||
               (frame->onActiveList && frame->referenced);
    }

    /**
     * Move @p frame's LRU membership from @p old_tier to its current
     * tier; call right after TierManager::rehome succeeds.
     */
    void onMigrated(Frame *frame, TierId old_tier);

    /**
     * Strip @p frame's LRU standing (inactive, unreferenced) — used
     * when a page is demoted so it must earn its way back to fast
     * memory through genuine reuse, not a single streaming touch.
     */
    void deactivate(Frame *frame);

    /**
     * Rotate @p frame to the hot end of whichever list it is on —
     * used when a migration is abandoned so the same cold frame is
     * not immediately re-picked by the next scan.
     */
    void requeue(Frame *frame);

    /**
     * Age @p tier's lists, visiting at most @p max_scan frames, and
     * append cold demotion candidates to @p out (cleared first,
     * capacity preserved). Charges scan cost per page visited —
     * an order-k frame costs 2^k pages, and truncated scans are
     * charged for every frame actually looked at.
     */
    void scanTier(TierId tier, FrameCount max_scan, ScanResult &out);

    /**
     * Collect up to @p max hot frames resident on @p tier (promotion
     * candidates for policies that upgrade to fast memory) into
     * @p out (cleared first, capacity preserved). Walks the active
     * list from the hot end; charges scan cost per page visited.
     */
    void collectHot(TierId tier, FrameCount max,
                    std::vector<FrameRef> &out);

    /**
     * Collect up to @p max frames on @p tier that were referenced
     * since the last call (active standing or referenced bit) —
     * the sampling NUMA-balancing hinting faults provide — into
     * @p out (cleared first, capacity preserved). Walks both lists
     * from the hot end; charges scan cost per page visited.
     */
    void collectReferenced(TierId tier, FrameCount max,
                           std::vector<FrameRef> &out);

    /** Total frames scanned to date. */
    uint64_t totalScanned() const { return _totalScanned; }

    /** Total pages visited to date (order-k frames count 2^k). */
    uint64_t totalPagesVisited() const { return _totalPagesVisited; }

    /** Frames currently on @p tier's active list. */
    uint64_t activeCount(TierId tier);

    /** Frames currently on @p tier's inactive list. */
    uint64_t inactiveCount(TierId tier);

  private:
    struct PoisonHook
    {
        void (*fn)(void *ctx, Frame *frame, PoisonOrigin origin) =
            nullptr;
        void *ctx = nullptr;
    };

    void onAllocated(Frame *frame);
    void onFreed(Frame *frame);

    /** onAccessed past the timestamp: poison consult and promotion. */
    void onAccessedSlow(Frame *frame);

    /** Consult the injector at @p site for @p frame; true = poisoned
     *  (the hook ran and the caller must not keep scanning it). */
    bool maybePoison(Frame *frame, FaultSite site, PoisonOrigin origin);

    Machine &_machine;
    TierManager &_tiers;
    PoisonHook _poisonHook;
    uint64_t _totalScanned = 0;
    uint64_t _totalPagesVisited = 0;
};

} // namespace kloc

#endif // KLOC_MEM_LRU_HH
