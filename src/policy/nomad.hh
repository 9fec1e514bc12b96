/**
 * @file
 * NomadStrategy: non-exclusive tiering via transactional page
 * migration (after Nomad, PAPERS.md).
 *
 * Promotion is a transactional copy: a page that saw write traffic
 * within the write-recency window aborts cheaply (the copy would be
 * dirtied mid-flight), and destination pressure aborts without the
 * retry/backoff a normal move pays. A committed promotion keeps the
 * slow-tier source pages allocated as a shadow copy, so demoting a
 * still-clean page later is a free remap — no copy traffic. The
 * shadow footprint is bounded by a budget expressed as a fraction of
 * the slow tier; promotions beyond it fall back to exclusive moves.
 *
 * The composed "kloc_nomad" variant layers KLOC's object-context
 * placement and daemon on top: kernel objects follow knode hotness
 * while app pages get Nomad's transactional tiering.
 */

#ifndef KLOC_POLICY_NOMAD_HH
#define KLOC_POLICY_NOMAD_HH

#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"

namespace kloc {

/** Transactional, non-exclusive app-page tiering. */
class NomadStrategy : public Policy
{
  public:
    struct Config
    {
        Tick scanPeriod = 100 * kMillisecond;
        FrameCount scanBatch{32768};
        FrameCount promoteBatch{4096};
        double demoteWatermark = 0.85;
        double promoteWatermark = 0.90;
        unsigned migrationParallelism = 8;
        /** Writes younger than this abort the transactional copy. */
        Tick writeRecencyWindow = 100 * kMillisecond;
        /** Shadow budget as a fraction of slow-tier pages. */
        double shadowBudgetFraction = 0.25;
        /** Compose with KLOC kernel-object placement + daemon. */
        bool composeKloc = false;
        Tick klocDaemonPeriod = 2 * kMillisecond;
    };

    /** @p ctx.kloc is required non-null when config.composeKloc. */
    NomadStrategy(const PolicyContext &ctx, Config config);

    const char *
    name() const override
    {
        return _config.composeKloc ? "kloc_nomad" : "nomad";
    }

    void install() override;
    void start() override;
    void stop() override;
    bool usesKloc() const override { return _config.composeKloc; }

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

    uint64_t scanTicks() const { return _scanTicks; }

    const Config &config() const { return _config; }

  private:
    void scanTick();

    /** Health-blind placement order; kernelPreference reorders it
     *  with TierManager::preferHealthy. */
    TierPreference kernelPlacement(ObjClass cls, bool knode_active);

    Config _config;
    bool _running = false;
    uint64_t _scanTicks = 0;

    /** Per-tick scratch buffers, reused so scans don't allocate. */
    ScanResult _scanScratch;
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _victims;
};

} // namespace kloc

#endif // KLOC_POLICY_NOMAD_HH
