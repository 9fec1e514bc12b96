/**
 * @file
 * Policy: the common contract every tiering policy implements.
 *
 * A Policy is a PlacementPolicy (where allocations of each class
 * start) plus a lifecycle (install / start / stop) driving what
 * migrates when. Platforms own exactly one installed Policy at a
 * time; the registry (policy/registry.hh) constructs policies by
 * name so tests and benches pick up new ones automatically. Every
 * policy is built from its registry row, which answers its name and
 * whether it composes KLOC.
 *
 * Every policy is built from a PolicyContext: the subsystems it drives
 * and the tiers it places onto, held by the base for the subclass.
 *
 * Lifecycle contract:
 *  - install(): make this the heap's placement policy and configure
 *    machinery (KLOC interface, migration parallelism, budgets).
 *    Must be idempotent and must not schedule events.
 *  - start(): begin periodic work (scan ticks, daemons). Idempotent.
 *  - stop(): cease scheduling further work and release any policy
 *    private state (e.g. Nomad's shadow copies). Ticks already in
 *    the event queue must become no-ops: run periodic work as a
 *    Daemon (sim/daemon.hh), whose stop() guarantees that.
 */

#ifndef KLOC_POLICY_POLICY_HH
#define KLOC_POLICY_POLICY_HH

#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"

namespace kloc {

class KlocManager;
class LruEngine;
class MigrationEngine;
struct PolicyRow;

/** Everything a policy constructor may need. */
struct PolicyContext
{
    KernelHeap &heap;
    LruEngine &lru;
    MigrationEngine &migrator;
    KlocManager *kloc;  ///< may be null; KLOC policies then fail
    /** Two-tier: the fast and slow tier. AutoNUMA balances over every
     *  tier instead, one per socket in socket order. */
    TierId fast;
    TierId slow;

    /**
     * The tier manager behind @p heap. Policies consult its health
     * state (TierManager::preferHealthy) so degraded tiers fall
     * behind healthy ones in every TierPreference; see
     * docs/POLICIES.md for the health placement contract.
     */
    TierManager &tiers() const { return heap.tiers(); }
};

/** One installable tiering policy (placement + migration driver). */
class Policy : public PlacementPolicy
{
  public:
    /** Stable name used by the registry, benches, and reports: the
     *  registry row's name. */
    const char *name() const;

    /** The registry row this policy was built from. */
    const PolicyRow &row() const { return _row; }

    /** Become the heap's policy and configure machinery. */
    virtual void install() = 0;

    /** Begin periodic scan/migration work. */
    virtual void start() = 0;

    /** Stop periodic work and release policy-private state. */
    virtual void stop() = 0;

    /** Whether the platform should enable KLOC-side plumbing
     *  (early demux etc.) while this policy is installed: the row's
     *  KLOC flag. */
    bool usesKloc() const;

  protected:
    /** @p ctx.kloc must be non-null when @p row composes KLOC. */
    Policy(const PolicyContext &ctx, const PolicyRow &row);

    const PolicyRow &_row;
    KernelHeap &_heap;
    LruEngine &_lru;
    MigrationEngine &_migrator;
    KlocManager *_kloc;
    TierId _fast;
    TierId _slow;
};

} // namespace kloc

#endif // KLOC_POLICY_POLICY_HH
