/**
 * @file
 * The Table 5 tiering strategies for the two-tier platform.
 *
 * Each strategy answers (i) where allocations of each class start
 * (PlacementPolicy) and (ii) what migrates when (its periodic tick).
 *
 *  - AllFast / AllSlow: static bounds.
 *  - Naive: greedy first-come-first-served into fast memory; no
 *    migration at all.
 *  - Nimble: application-page tiering with parallelised page copy;
 *    kernel objects live in slow memory (what prior art does for
 *    two-tier systems, §3.2).
 *  - Nimble++: Nimble's scan-driven mechanisms extended to kernel
 *    pages, without the KLOC abstraction — slab pages stay
 *    non-relocatable and scan latency exceeds kernel object
 *    lifetimes, so hot kernel objects rarely return to fast memory.
 *  - KlocNoMigration: KLOC direct allocation (active knodes' objects
 *    to fast memory) but no kernel-object migration.
 *  - Kloc: the full system — direct allocation, immediate demotion
 *    of inactive KLOCs, promotion on re-activation, watermark
 *    pressure handling, plus Nimble's app-page tiering.
 */

#ifndef KLOC_POLICY_STRATEGY_HH
#define KLOC_POLICY_STRATEGY_HH

#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"

namespace kloc {

/** The strategies of Table 5 (two-tier platform), plus AutoNuma:
 *  stock NUMA-balancing semantics mapped onto two tiers (app pages
 *  fast-first with serial scan-driven migration, kernel objects
 *  greedy like Naive). */
enum class StrategyKind {
    AllFast,
    AllSlow,
    Naive,
    AutoNuma,
    Nimble,
    NimblePlusPlus,
    KlocNoMigration,
    Kloc,
};

struct PolicyRow;

/**
 * Switch the KLOC runtime and the heap's KLOC interface on (with
 * tier order @p order) or off. A no-op without a KlocManager. The
 * KLOC-capable policies' install() and the platform lifecycle use it.
 */
void setKlocMode(KernelHeap &heap, KlocManager *kloc, bool on,
                 const TierPreference &order);

/**
 * KLOC kernel-object placement (§4.2.2), health-blind: KLOC metadata
 * and classes KLOC does not manage are pinned fast; managed classes
 * follow knode hotness, unless a sys_kloc_memsize cap diverts them
 * once their fast-tier residency reaches it. Shared by the KLOC
 * strategies and the KLOC-composed Nomad.
 */
TierPreference klocKernelPlacement(const KlocManager *kloc, ObjClass cls,
                                   bool knode_active, TierId fast,
                                   TierId slow);

/** One configured tiering strategy. */
class TieringStrategy : public Policy
{
  public:
    struct Config
    {
        Tick scanPeriod = 100 * kMillisecond;
        FrameCount scanBatch{32768};
        FrameCount promoteBatch{4096};
        /** Fast-tier utilization that triggers demotion. */
        double demoteWatermark = 0.85;
        /** Fast-tier utilization below which promotion is allowed. */
        double promoteWatermark = 0.90;
        /** Nimble's parallel page-copy width. */
        unsigned migrationParallelism = 8;
        /** KLOC daemon wakeup period. */
        Tick klocDaemonPeriod = 2 * kMillisecond;
    };

    /** @p ctx.kloc may be null except for the KLOC strategies. */
    TieringStrategy(StrategyKind kind, const PolicyContext &ctx,
                    Config config);

    /** The registry name of this strategy's kind. */
    const char *name() const override;

    /**
     * Apply the strategy: installs itself as the heap's placement
     * policy, flips the KLOC interface / manager state, and sets
     * migration parallelism.
     */
    void install() override;

    /** Begin periodic scan/migration work. */
    void start() override;

    /** Stop periodic work. */
    void stop() override;

    bool usesKloc() const override;

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

    /** Scan ticks executed (diagnostics). */
    uint64_t scanTicks() const { return _scanTicks; }

  private:
    bool usesAppMigration() const;
    bool usesKernelScanMigration() const;
    void scanTick();

    /** Health-blind placement order; the public preference methods
     *  reorder it with TierManager::preferHealthy. */
    TierPreference kernelPlacement(ObjClass cls, bool knode_active);
    TierPreference appPlacement();

    StrategyKind _kind;
    /** This kind's registry row: its name and whether it is KLOC. */
    const PolicyRow &_row;
    Config _config;
    bool _running = false;
    uint64_t _scanTicks = 0;

    /** Per-tick scratch buffers, reused so scans don't allocate. */
    ScanResult _scanScratch;
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _victims;
};

} // namespace kloc

#endif // KLOC_POLICY_STRATEGY_HH
