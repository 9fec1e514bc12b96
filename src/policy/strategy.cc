#include "policy/strategy.hh"

#include "base/logging.hh"
#include "policy/registry.hh"

namespace kloc {

void
setKlocMode(KernelHeap &heap, KlocManager *kloc, bool on,
            const TierPreference &order)
{
    if (kloc == nullptr)
        return;
    kloc->setEnabled(on);
    if (on)
        kloc->setTierOrder(order);
    heap.setKlocInterface(on);
}

TierPreference
klocKernelPlacement(const KlocManager *kloc, ObjClass cls, bool knode_active,
                    TierId fast, TierId slow)
{
    if (cls == ObjClass::KlocMeta)
        return {fast, slow};
    if (kloc && !kloc->classManaged(cls))
        return {fast, slow};
    if (kloc && kloc->overMemLimit(fast))
        return {slow, fast};
    return knode_active ? TierPreference{fast, slow}
                        : TierPreference{slow, fast};
}

TieringStrategy::TieringStrategy(StrategyKind kind, const PolicyContext &ctx,
                                 Config config)
    : Policy(ctx), _kind(kind), _row(policyRow(kind)), _config(config)
{
    KLOC_ASSERT(!_row.kloc || _kloc != nullptr,
                "strategy %s requires a KlocManager", _row.name);
}

const char *
TieringStrategy::name() const
{
    return _row.name;
}

bool
TieringStrategy::usesKloc() const
{
    return _row.kloc;
}

void
TieringStrategy::install()
{
    _heap.setPolicy(this);
    setKlocMode(_heap, _kloc, _row.kloc, {_fast, _slow});
    _migrator.setParallelism(
        _kind == StrategyKind::Nimble ||
        _kind == StrategyKind::NimblePlusPlus ||
        _kind == StrategyKind::KlocNoMigration ||
        _kind == StrategyKind::Kloc
            ? _config.migrationParallelism
            : 1);
}

bool
TieringStrategy::usesAppMigration() const
{
    // Nimble's app-page tiering is also reused by both KLOC modes
    // (Table 5: "Original Nimble policies ... for application pages").
    // AutoNuma migrates app pages too, just with a serial page copy.
    return _kind == StrategyKind::AutoNuma ||
           _kind == StrategyKind::Nimble ||
           _kind == StrategyKind::NimblePlusPlus ||
           _kind == StrategyKind::KlocNoMigration ||
           _kind == StrategyKind::Kloc;
}

bool
TieringStrategy::usesKernelScanMigration() const
{
    // Only Nimble++ migrates kernel pages through LRU scans; the
    // KLOC strategies migrate them through knodes instead.
    return _kind == StrategyKind::NimblePlusPlus;
}

TierPreference
TieringStrategy::kernelPreference(ObjClass cls, bool knode_active)
{
    // Health degradation reorders, never replaces, the placement
    // order: degraded tiers fall behind healthy ones and failed
    // tiers become the last resort.
    return _heap.tiers().preferHealthy(kernelPlacement(cls, knode_active));
}

TierPreference
TieringStrategy::kernelPlacement(ObjClass cls, bool knode_active)
{
    switch (_kind) {
      case StrategyKind::AllFast:
        return {_fast};
      case StrategyKind::AllSlow:
        return {_slow};
      case StrategyKind::Naive:
      case StrategyKind::AutoNuma:
      case StrategyKind::NimblePlusPlus:
        // Greedy: fast until full. Stock NUMA balancing ignores
        // kernel objects, so AutoNuma places them like Naive.
        return {_fast, _slow};
      case StrategyKind::Nimble:
        // Prior art places kernel objects in slow memory on two-tier
        // systems (§3.2), except KLOC's own metadata does not exist.
        return {_slow, _fast};
      case StrategyKind::KlocNoMigration:
      case StrategyKind::Kloc:
        return klocKernelPlacement(_kloc, cls, knode_active, _fast, _slow);
    }
    return {_fast, _slow};
}

TierPreference
TieringStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(appPlacement());
}

TierPreference
TieringStrategy::appPlacement()
{
    switch (_kind) {
      case StrategyKind::AllFast:
        return {_fast};
      case StrategyKind::AllSlow:
        return {_slow};
      default:
        // Application pages are prioritised for fast memory by every
        // dynamic strategy.
        return {_fast, _slow};
    }
}

void
TieringStrategy::scanTick()
{
    if (!_running)
        return;
    ++_scanTicks;
    TierManager &tiers = _heap.tiers();

    const bool kernel_scope = usesKernelScanMigration();

    // Demote cold pages off the fast tier under pressure. The scan
    // and filter scratch buffers persist across ticks so the
    // steady-state scan loop allocates nothing.
    if (tiers.tier(_fast).utilization() > _config.demoteWatermark) {
        _lru.scanTier(_fast, _config.scanBatch, _scanScratch);
        _victims.clear();
        for (const FrameRef &ref : _scanScratch.demoteCandidates) {
            if (!ref.valid())
                continue;
            const ObjClass cls = ref->objClass;
            if (cls == ObjClass::App ||
                (kernel_scope && isKernelClass(cls) &&
                 cls != ObjClass::KlocMeta)) {
                _victims.push_back(ref);
            }
        }
        _migrator.migrate(_victims, _slow);
    }

    // Promote hot pages from the slow tier when there is headroom.
    if (tiers.tier(_fast).utilization() < _config.promoteWatermark) {
        _lru.collectHot(_slow, _config.promoteBatch, _hotScratch);
        _victims.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (!ref.valid())
                continue;
            const ObjClass cls = ref->objClass;
            if (cls == ObjClass::App ||
                (kernel_scope && isKernelClass(cls) &&
                 cls != ObjClass::KlocMeta)) {
                _victims.push_back(ref);
            }
        }
        _migrator.migrate(_victims, _fast);
    }

    scheduleTick(_config.scanPeriod, &TieringStrategy::scanTick);
}

void
TieringStrategy::start()
{
    if (_running)
        return;
    if (usesAppMigration()) {
        _running = true;
        scheduleTick(_config.scanPeriod, &TieringStrategy::scanTick);
    }
    if (_kind == StrategyKind::Kloc && _kloc)
        _kloc->startDaemon(_config.klocDaemonPeriod);
}

void
TieringStrategy::stop()
{
    _running = false;
    if (_kloc)
        _kloc->stopDaemon();
}

} // namespace kloc
