#include "policy/strategy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kloc {

namespace {

/**
 * KLOC kernel-object placement (§4.2.2), health-blind: KLOC metadata
 * and classes KLOC does not manage are pinned fast; managed classes
 * follow knode hotness, unless a sys_kloc_memsize cap diverts them
 * once their fast-tier residency reaches it.
 */
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

} // namespace

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

TieringStrategy::TieringStrategy(const PolicyRow &row,
                                 const PolicyContext &ctx, Config config)
    : Policy(ctx, row), _config(config),
      _scanDaemon(_heap.mem().machine())
{
    KLOC_ASSERT(row.platform == PolicyPlatform::TwoTier,
                "%s is not a two-tier row", row.name);
    _scanDaemon.setBody([this](Tick period) { return scanTick(period); });
}

void
TieringStrategy::install()
{
    _heap.setPolicy(this);
    setKlocMode(_heap, _kloc, _row.kloc, {_fast, _slow});
    _migrator.setParallelism(_row.parallelCopy ? kParallelCopyWidth : 1);
    if (_row.promotion == Promotion::Transactional) {
        const double budget =
            kShadowBudgetFraction *
            static_cast<double>(
                _heap.tiers().tier(_slow).totalPages().value());
        _migrator.setShadowBudget(FrameCount{static_cast<uint64_t>(budget)});
    }
}

TierPreference
TieringStrategy::order(Placement where) const
{
    switch (where) {
      case Placement::Fast:
        return {_fast};
      case Placement::Slow:
        return {_slow};
      case Placement::FastFirst:
        return {_fast, _slow};
      case Placement::SlowFirst:
        return {_slow, _fast};
    }
    return {_fast, _slow};
}

TierPreference
TieringStrategy::kernelPreference(ObjClass cls, bool knode_active)
{
    // Health degradation reorders, never replaces, the placement
    // order: degraded tiers fall behind healthy ones and failed
    // tiers become the last resort.
    return _heap.tiers().preferHealthy(
        _row.kloc
            ? klocKernelPlacement(_kloc, cls, knode_active, _fast, _slow)
            : order(_row.kernel));
}

TierPreference
TieringStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(order(_row.app));
}

void
TieringStrategy::selectMovers(const std::vector<FrameRef> &candidates)
{
    const bool kernel_scope = _row.scan == ScanScope::AppAndKernel;
    _victims.clear();
    for (const FrameRef &ref : candidates) {
        if (!ref.valid())
            continue;
        const ObjClass cls = ref->objClass;
        if (cls == ObjClass::App ||
            (kernel_scope && isKernelClass(cls) &&
             cls != ObjClass::KlocMeta)) {
            _victims.push_back(ref);
        }
    }
}

void
TieringStrategy::gradeReuseWindow()
{
    if (_window.empty())
        return;
    uint64_t reused = 0;
    for (const auto &[ref, promoted_at] : _window) {
        if (ref.valid() && ref->tier == _fast &&
            ref->lastAccessTick > promoted_at) {
            ++reused;
        }
    }
    const uint64_t sampled = _window.size();
    _window.clear();
    const double ratio =
        static_cast<double>(reused) / static_cast<double>(sampled);

    if (ratio <= kReuseLow) {
        ++_lowStreak;
        _highStreak = 0;
    } else if (ratio >= kReuseHigh) {
        ++_highStreak;
        _lowStreak = 0;
    } else {
        _lowStreak = 0;
        _highStreak = 0;
    }

    Tracer &tracer = _heap.mem().machine().tracer();
    if (_lowStreak >= kHysteresis && _promoteBatch > kPromoteBatchMin) {
        _promoteBatch = std::max(kPromoteBatchMin,
                                 FrameCount{_promoteBatch.value() / 2});
        _lowStreak = 0;
        ++_adaptations;
        tracer.emit(TraceEventType::PolicyRateAdapt,
                    _promoteBatch.value(), reused, sampled);
    } else if (_highStreak >= kHysteresis &&
               _promoteBatch < kPromoteBatchMax) {
        _promoteBatch = std::min(kPromoteBatchMax,
                                 FrameCount{_promoteBatch.value() * 2});
        _highStreak = 0;
        ++_adaptations;
        tracer.emit(TraceEventType::PolicyRateAdapt,
                    _promoteBatch.value(), reused, sampled);
    }
}

Tick
TieringStrategy::scanTick(Tick period)
{
    ++_scanTicks;
    TierManager &tiers = _heap.tiers();

    // Grade last tick's promotions before making new ones.
    if (_row.adaptiveRate)
        gradeReuseWindow();

    // Demote cold pages off the fast tier under pressure, never
    // throttled. A clean page whose shadow still sits on the slow
    // tier demotes as a free remap. The scan and filter scratch
    // buffers persist across ticks so the steady-state scan loop
    // allocates nothing.
    if (tiers.tier(_fast).utilization() > kDemoteWatermark) {
        _lru.scanTier(_fast, kScanBatch, _scanScratch);
        selectMovers(_scanScratch.demoteCandidates);
        _migrator.migrate(_victims, _slow);
    }

    // Promote hot pages from the slow tier when there is headroom.
    if (tiers.tier(_fast).utilization() < kPromoteWatermark) {
        _lru.collectHot(_slow, _promoteBatch, _hotScratch);
        selectMovers(_hotScratch);
        if (_row.promotion == Promotion::Transactional)
            _migrator.promoteTransactional(_victims, _fast,
                                           kWriteRecencyWindow);
        else
            _migrator.migrate(_victims, _fast);
        if (_row.adaptiveRate) {
            // Sample what actually landed for next tick's grading.
            const Tick now = _heap.mem().machine().now();
            for (const FrameRef &ref : _victims) {
                if (_window.size() >= kReuseSampleCap)
                    break;
                if (ref.valid() && ref->tier == _fast)
                    _window.emplace_back(ref, now);
            }
        }
    }

    // Fully throttled promotion also stretches the scan period —
    // scanning costs background traffic the workload is not earning.
    // Only an adaptive row's batch ever reaches the floor.
    return _promoteBatch == kPromoteBatchMin ? 2 * period : period;
}

void
TieringStrategy::start()
{
    if (_row.scan != ScanScope::None)
        _scanDaemon.start(_config.scanPeriod);
    if (_row.klocDaemon && _kloc)
        _kloc->startDaemon(_config.klocDaemonPeriod);
}

void
TieringStrategy::stop()
{
    _scanDaemon.stop();
    _window.clear();
    if (_row.klocDaemon && _kloc)
        _kloc->stopDaemon();
    if (_row.promotion == Promotion::Transactional) {
        // Shadows are policy-private state: release them so the slow
        // tier's capacity is whole for whatever policy follows.
        _heap.tiers().dropAllShadows(ShadowDropReason::PolicyStop);
        _migrator.setShadowBudget(FrameCount{~0ULL});
    }
}

} // namespace kloc
