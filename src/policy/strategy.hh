/**
 * @file
 * The two-tier tiering strategies: one class, built from a two-tier
 * PolicyRow (policy/registry.cc), which is the only place the
 * policies differ.
 *
 * A strategy answers (i) where allocations of each class start
 * (PlacementPolicy: the row's kernel and app Placement, or KLOC's
 * knode-hotness placement for a row that composes KLOC) and (ii) what
 * migrates when: one scan tick, run while the row's ScanScope is not
 * None, demotes cold pages in scope off the fast tier under pressure
 * and promotes hot ones into headroom.
 *
 * The row picks the promotion style. An exclusive promotion frees the
 * slow-tier source. A transactional one (after Nomad, PAPERS.md)
 * aborts cheaply on a page written within the write-recency window
 * and keeps a committed page's source as a shadow, so demoting a
 * still-clean page later is a free remap; shadows are capped by a
 * budget (a fraction of the slow tier), past which promotions move
 * exclusively.
 *
 * An adaptive-rate row (after Jenga, PAPERS.md) sizes its promotion
 * batch by reuse. Each tick samples what it promoted and the next
 * tick grades how much of it was re-referenced in fast memory; after
 * a hysteresis streak of low-reuse windows the batch halves (down to
 * a floor, where the scan period also doubles), after a streak of
 * high-reuse windows it doubles (up to a cap). Every change emits a
 * PolicyRateAdapt trace event. Demotion is never throttled.
 */

#ifndef KLOC_POLICY_STRATEGY_HH
#define KLOC_POLICY_STRATEGY_HH

#include <utility>
#include <vector>

#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"
#include "policy/registry.hh"
#include "sim/daemon.hh"

namespace kloc {

/**
 * Switch the KLOC runtime and the heap's KLOC interface on (with
 * tier order @p order) or off. A no-op without a KlocManager. The
 * policies' install() and the platform lifecycle use it.
 */
void setKlocMode(KernelHeap &heap, KlocManager *kloc, bool on,
                 const TierPreference &order);

/** One configured two-tier strategy. */
class TieringStrategy : public Policy
{
  public:
    struct Config
    {
        Tick scanPeriod = 100 * kMillisecond;
        /** KLOC daemon wakeup period. */
        Tick klocDaemonPeriod = 2 * kMillisecond;
    };

    /** Frames one demotion scan may visit. */
    static constexpr FrameCount kScanBatch{32768};
    /** Pages promoted per tick, and an adaptive row's first batch. */
    static constexpr FrameCount kPromoteBatch{4096};
    /** Fast-tier utilization that triggers demotion. */
    static constexpr double kDemoteWatermark = 0.85;
    /** Fast-tier utilization below which promotion is allowed. */
    static constexpr double kPromoteWatermark = 0.90;

    /** Transactional promotion: writes younger than this abort the
     *  copy. */
    static constexpr Tick kWriteRecencyWindow = 100 * kMillisecond;
    /** Transactional promotion: shadow budget as a fraction of the
     *  slow tier's pages. */
    static constexpr double kShadowBudgetFraction = 0.25;

    /** Adaptive rate: the batch's floor and cap. */
    static constexpr FrameCount kPromoteBatchMin{64};
    static constexpr FrameCount kPromoteBatchMax{8192};
    /** Adaptive rate: reuse ratio at or above which the batch grows,
     *  and at or below which it shrinks. */
    static constexpr double kReuseHigh = 0.5;
    static constexpr double kReuseLow = 0.2;
    /** Adaptive rate: consecutive windows on one side before a
     *  change. */
    static constexpr unsigned kHysteresis = 2;
    /** Adaptive rate: promoted pages sampled per window. */
    static constexpr size_t kReuseSampleCap = 512;

    /** Builds the two-tier @p row. @p ctx.kloc may be null unless
     *  the row composes KLOC. */
    TieringStrategy(const PolicyRow &row, const PolicyContext &ctx,
                    Config config);

    /**
     * Apply the strategy: installs itself as the heap's placement
     * policy, flips the KLOC interface / manager state, and sets
     * migration parallelism and the shadow budget.
     */
    void install() override;

    /** Begin periodic scan/migration work and the KLOC daemon. */
    void start() override;

    /** Stop periodic work; a transactional row drops its shadows. */
    void stop() override;

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

    /** Scan ticks executed (diagnostics). */
    uint64_t scanTicks() const { return _scanTicks; }

    /** Current promotion batch (pages per tick). */
    FrameCount promoteBatch() const { return _promoteBatch; }

    /** Adaptive-rate changes applied so far (halvings + doublings). */
    uint64_t adaptations() const { return _adaptations; }

  private:
    /** One scan: demote under pressure, promote into headroom.
     *  @return the delay to the next scan. */
    Tick scanTick(Tick period);
    /** Adaptive rate: grade last tick's promotions, adapt the batch. */
    void gradeReuseWindow();
    /** Fill _victims with the valid frames of @p candidates in this
     *  row's scan scope. */
    void selectMovers(const std::vector<FrameRef> &candidates);

    /** The health-blind tier order of @p where. */
    TierPreference order(Placement where) const;

    Config _config;
    uint64_t _scanTicks = 0;

    FrameCount _promoteBatch = kPromoteBatch;
    unsigned _lowStreak = 0;
    unsigned _highStreak = 0;
    uint64_t _adaptations = 0;
    /** Adaptive rate: last tick's promotions (page, promotion time). */
    std::vector<std::pair<FrameRef, Tick>> _window;

    /** Per-tick scratch buffers, reused so scans don't allocate. */
    ScanResult _scanScratch;
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _victims;
    Daemon _scanDaemon;
};

} // namespace kloc

#endif // KLOC_POLICY_STRATEGY_HH
