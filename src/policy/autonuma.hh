/**
 * @file
 * AutoNUMA-style policies for the Optane Memory-Mode platform
 * (§4.5, §6.2, Fig. 5a).
 *
 * The platform is two sockets, each a DRAM-cache-fronted persistent
 * memory tier. A streaming interferer degrades one socket; the
 * scheduler moves the task to the other socket, and the policy
 * decides which pages follow. One class, built from an Optane
 * PolicyRow (policy/registry.cc): while the row's ScanScope is not
 * None, a balance tick pulls referenced application pages to the
 * task's socket (kernel objects stay put, as in stock Linux), with
 * the row's copy width; a row that composes KLOC also pulls the
 * objects of active knodes.
 */

#ifndef KLOC_POLICY_AUTONUMA_HH
#define KLOC_POLICY_AUTONUMA_HH

#include <vector>

#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"
#include "sim/daemon.hh"

namespace kloc {

/** NUMA balancing policy variants compared in Fig. 5a. */
class AutoNumaPolicy : public Policy
{
  public:
    struct Config
    {
        Tick scanPeriod = 50 * kMillisecond;
    };

    /** Pages each remote tier may send per balance tick. */
    static constexpr FrameCount kMigrateBatch{8192};

    /** Builds the Optane @p row. Balances over every tier of @p ctx:
     *  one per socket, in socket order (@p ctx.fast and @p ctx.slow
     *  are unused). */
    AutoNumaPolicy(const PolicyRow &row, const PolicyContext &ctx,
                   Config config);

    /** Install as the heap's policy; configure KLOC and parallelism. */
    void install() override;

    void start() override;
    void stop() override;

    /** Tier local to the task's current socket. */
    TierId localTier() const;

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

    uint64_t balanceTicks() const { return _ticks; }

  private:
    /** One NUMA-balancing pass. @return the delay to the next. */
    Tick balanceTick(Tick period);
    TierPreference localFirst() const;

    /** Tier hosting each socket's memory, indexed by socket. */
    std::vector<TierId> _socketTiers;
    Config _config;
    uint64_t _ticks = 0;

    /** Per-tick scratch buffers, reused so balancing doesn't allocate. */
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _movers;
    Daemon _balanceDaemon;
};

} // namespace kloc

#endif // KLOC_POLICY_AUTONUMA_HH
