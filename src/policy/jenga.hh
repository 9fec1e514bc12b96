/**
 * @file
 * JengaStrategy: reuse-driven adaptive promotion rate (after Jenga,
 * PAPERS.md).
 *
 * Each scan tick samples the pages it promoted; on the next tick it
 * measures how many of them were re-referenced while resident in
 * fast memory. A low reuse ratio means promotion is churning pages
 * an antagonistic working set will never touch again, so after a
 * hysteresis streak the promotion batch halves (down to a floor, at
 * which point the scan period also stretches); a sustained high
 * ratio doubles it back (up to a cap). Every adaptation emits a
 * PolicyRateAdapt trace event, and the observed reuse percentages
 * accumulate in a histogram for diagnostics.
 *
 * Demotion is never throttled: responsiveness to fast-tier pressure
 * is the point of the policy.
 */

#ifndef KLOC_POLICY_JENGA_HH
#define KLOC_POLICY_JENGA_HH

#include <utility>
#include <vector>

#include "base/stats.hh"
#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"

namespace kloc {

/** Adaptive-rate app-page tiering with promotion hysteresis. */
class JengaStrategy : public Policy
{
  public:
    struct Config
    {
        Tick scanPeriod = 100 * kMillisecond;
        FrameCount scanBatch{32768};
        /** Initial promotion batch; adapts within [min, max]. */
        FrameCount promoteBatchStart{4096};
        FrameCount promoteBatchMin{64};
        FrameCount promoteBatchMax{8192};
        double demoteWatermark = 0.85;
        double promoteWatermark = 0.90;
        unsigned migrationParallelism = 8;
        /** Reuse ratio at or above which the rate grows. */
        double reuseHigh = 0.5;
        /** Reuse ratio at or below which the rate shrinks. */
        double reuseLow = 0.2;
        /** Consecutive windows on one side before adapting. */
        unsigned hysteresis = 2;
        /** Promoted pages sampled per window for the reuse check. */
        size_t reuseSampleCap = 512;
    };

    JengaStrategy(const PolicyContext &ctx, Config config);

    const char *name() const override { return "jenga"; }

    void install() override;
    void start() override;
    void stop() override;

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

    uint64_t scanTicks() const { return _scanTicks; }

    /** Current adapted promotion batch (pages per tick). */
    FrameCount promoteBatch() const { return _promoteBatch; }

    /** Rate changes applied so far (halvings + doublings). */
    uint64_t adaptations() const { return _adaptations; }

    /** Observed per-window reuse percentages (0..100). */
    const Histogram &reuseHistogram() const { return _reuseHist; }

    const Config &config() const { return _config; }

  private:
    void scanTick();
    void evaluateReuseWindow();

    Config _config;
    bool _running = false;
    uint64_t _scanTicks = 0;

    FrameCount _promoteBatch{0};
    unsigned _lowStreak = 0;
    unsigned _highStreak = 0;
    uint64_t _adaptations = 0;
    Histogram _reuseHist;

    /** Promotions sampled last tick: (page, promotion time). */
    std::vector<std::pair<FrameRef, Tick>> _window;

    /** Per-tick scratch buffers, reused so scans don't allocate. */
    ScanResult _scanScratch;
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _victims;
};

} // namespace kloc

#endif // KLOC_POLICY_JENGA_HH
