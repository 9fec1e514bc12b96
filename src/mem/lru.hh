/**
 * @file
 * Linux-style two-list LRU engine over each tier's frames.
 *
 * TierManager links new frames into the inactive list, carries them
 * across tiers and unlinks them on free; a frame referenced twice is
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

class MigrationEngine;

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
    /** Installs itself as _migrator for its lifetime. */
    friend class MigrationEngine;

  public:
    /** Cost of visiting one frame during a scan (2 s / 1 M pages). */
    static constexpr Tick kScanCostPerPage{2000};

    LruEngine(Machine &machine, TierManager &tiers)
        : _machine(machine), _tiers(tiers)
    {}

    /**
     * Record a simulated reference to @p frame; runs on every one.
     * List membership itself is TierManager's (alloc, rehome, free).
     *
     * While a MigrationEngine is alive, an armed injector is
     * consulted at frame_poison_access, and the engine contains a
     * poisoning — possibly re-homing the frame, so callers treat it
     * as re-homed after the call. Without an engine no fault RNG is
     * drawn.
     *
     * When no poison consult is due, the touches that only set the
     * referenced bit (unlinked, active, or inactive and unreferenced
     * frames) finish inline; promotion and the consult take the
     * out-of-line path.
     */
    void
    onAccessed(Frame *frame)
    {
        frame->lastAccessTick = _machine.now();
        const bool consult = _migrator != nullptr &&
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
    /** onAccessed past the timestamp: poison consult and promotion. */
    void onAccessedSlow(Frame *frame);

    /** Consult the injector at @p site for @p frame; true = poisoned
     *  (containment ran and the caller must not keep scanning it). */
    bool maybePoison(Frame *frame, FaultSite site, PoisonOrigin origin);

    Machine &_machine;
    TierManager &_tiers;
    /** The containment authority for access/scan poisonings; see
     *  MigrationEngine's constructor. */
    MigrationEngine *_migrator = nullptr;
    uint64_t _totalScanned = 0;
    uint64_t _totalPagesVisited = 0;
};

} // namespace kloc

#endif // KLOC_MEM_LRU_HH
