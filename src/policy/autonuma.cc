#include "policy/autonuma.hh"

#include "base/logging.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"

namespace kloc {

AutoNumaPolicy::AutoNumaPolicy(const PolicyRow &row,
                               const PolicyContext &ctx, Config config)
    : Policy(ctx, row), _config(config),
      _balanceDaemon(_heap.mem().machine())
{
    KLOC_ASSERT(row.platform == PolicyPlatform::Optane,
                "%s is not an Optane row", row.name);
    _balanceDaemon.setBody(
        [this](Tick period) { return balanceTick(period); });
    for (size_t t = 0; t < ctx.tiers().tierCount(); ++t)
        _socketTiers.push_back(static_cast<TierId>(t));
    KLOC_ASSERT(_socketTiers.size() >= 2, "AutoNUMA needs >= 2 sockets");
}

TierId
AutoNumaPolicy::localTier() const
{
    const int socket = _heap.mem().machine().currentSocket();
    KLOC_ASSERT(static_cast<size_t>(socket) < _socketTiers.size(),
                "socket %d has no tier", socket);
    return _socketTiers[static_cast<size_t>(socket)];
}

TierPreference
AutoNumaPolicy::localFirst() const
{
    TierPreference pref;
    pref.push_back(localTier());
    for (const TierId tier : _socketTiers) {
        if (tier != pref.front())
            pref.push_back(tier);
    }
    return pref;
}

TierPreference
AutoNumaPolicy::kernelPreference(ObjClass, bool)
{
    // Kernel objects allocate on the socket running the allocating
    // CPU — what every stock kernel does (§3.3). Health degradation
    // reorders that: a degraded local tier falls behind healthy
    // remote ones.
    return _heap.tiers().preferHealthy(localFirst());
}

TierPreference
AutoNumaPolicy::appPreference()
{
    return _heap.tiers().preferHealthy(localFirst());
}

void
AutoNumaPolicy::install()
{
    _heap.setPolicy(this);
    // Tier order is task-relative; re-pointed every tick.
    setKlocMode(_heap, _kloc, _row.kloc, localFirst());
    _migrator.setParallelism(_row.parallelCopy ? kParallelCopyWidth : 1);
}

Tick
AutoNumaPolicy::balanceTick(Tick period)
{
    ++_ticks;
    const TierId local = localTier();

    // NUMA-balancing pass: pages the task touched on remote sockets
    // migrate toward it, like hinting-fault-driven migration. Stock
    // AutoNUMA only moves app pages.
    for (const TierId tier : _socketTiers) {
        if (tier == local)
            continue;
        _lru.collectReferenced(tier, kMigrateBatch, _hotScratch);
        _movers.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _movers.push_back(ref);
        }
        _migrator.migrate(_movers, local);
    }

    if (_row.kloc) {
        // KLOC extension (§4.5): for active KLOCs, check member
        // objects' placement and pull remote ones local.
        _kloc->setTierOrder(localFirst());
        for (Knode *knode : _kloc->lruKnodes(~0ULL)) {
            if (knode->inuse)
                _kloc->migrateKnodeObjects(knode, local);
        }
    }
    return period;
}

void
AutoNumaPolicy::start()
{
    if (_row.scan != ScanScope::None)
        _balanceDaemon.start(_config.scanPeriod);
}

void
AutoNumaPolicy::stop()
{
    _balanceDaemon.stop();
}

} // namespace kloc
