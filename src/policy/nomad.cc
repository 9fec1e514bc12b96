#include "policy/nomad.hh"

#include "base/logging.hh"
#include "policy/strategy.hh"

namespace kloc {

NomadStrategy::NomadStrategy(const PolicyContext &ctx, Config config)
    : Policy(ctx), _config(config)
{
    KLOC_ASSERT(!_config.composeKloc || _kloc != nullptr,
                "kloc_nomad requires a KlocManager");
}

void
NomadStrategy::install()
{
    _heap.setPolicy(this);
    setKlocMode(_heap, _kloc, _config.composeKloc, {_fast, _slow});
    _migrator.setParallelism(_config.migrationParallelism);
    const double budget =
        _config.shadowBudgetFraction *
        static_cast<double>(_heap.tiers().tier(_slow).totalPages().value());
    _migrator.setShadowBudget(FrameCount{static_cast<uint64_t>(budget)});
}

TierPreference
NomadStrategy::kernelPreference(ObjClass cls, bool knode_active)
{
    // Health degradation reorders, never replaces, the placement.
    return _heap.tiers().preferHealthy(kernelPlacement(cls, knode_active));
}

TierPreference
NomadStrategy::kernelPlacement(ObjClass cls, bool knode_active)
{
    if (_config.composeKloc)
        return klocKernelPlacement(_kloc, cls, knode_active, _fast, _slow);
    // Plain Nomad is application tiering; kernel objects go slow
    // like other prior-art two-tier policies (§3.2).
    return {_slow, _fast};
}

TierPreference
NomadStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(TierPreference{_fast, _slow});
}

void
NomadStrategy::scanTick()
{
    if (!_running)
        return;
    ++_scanTicks;
    TierManager &tiers = _heap.tiers();

    // Demotions drain through shadows when possible: migrate() turns
    // a clean page whose shadow still sits on the slow tier into a
    // free remap.
    if (tiers.tier(_fast).utilization() > _config.demoteWatermark) {
        _lru.scanTier(_fast, _config.scanBatch, _scanScratch);
        _victims.clear();
        for (const FrameRef &ref : _scanScratch.demoteCandidates) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.migrate(_victims, _slow);
    }

    // Promotions are transactional copies.
    if (tiers.tier(_fast).utilization() < _config.promoteWatermark) {
        _lru.collectHot(_slow, _config.promoteBatch, _hotScratch);
        _victims.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.promoteTransactional(_victims, _fast,
                                       _config.writeRecencyWindow);
    }

    scheduleTick(_config.scanPeriod, &NomadStrategy::scanTick);
}

void
NomadStrategy::start()
{
    if (_running)
        return;
    _running = true;
    scheduleTick(_config.scanPeriod, &NomadStrategy::scanTick);
    if (_config.composeKloc && _kloc)
        _kloc->startDaemon(_config.klocDaemonPeriod);
}

void
NomadStrategy::stop()
{
    _running = false;
    if (_kloc)
        _kloc->stopDaemon();
    // Shadows are policy-private state: release them so the slow
    // tier's capacity is whole for whatever policy follows.
    _heap.tiers().dropAllShadows(ShadowDropReason::PolicyStop);
    _migrator.setShadowBudget(FrameCount{~0ULL});
}

} // namespace kloc
