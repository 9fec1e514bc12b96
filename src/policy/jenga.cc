#include "policy/jenga.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kloc {

JengaStrategy::JengaStrategy(const PolicyContext &ctx, Config config)
    : Policy(ctx), _config(config), _promoteBatch(config.promoteBatchStart)
{
    KLOC_ASSERT(_config.promoteBatchMin.value() > 0,
                "promotion floor must be positive");
    KLOC_ASSERT(_config.promoteBatchMin.value() <=
                    _config.promoteBatchMax.value(),
                "promotion floor above cap");
    KLOC_ASSERT(_config.hysteresis >= 1, "hysteresis below 1");
}

void
JengaStrategy::install()
{
    _heap.setPolicy(this);
    _heap.setKlocInterface(false);
    _migrator.setParallelism(_config.migrationParallelism);
}

TierPreference
JengaStrategy::kernelPreference(ObjClass, bool)
{
    // Application tiering only; kernel objects go slow like other
    // prior-art two-tier policies (§3.2). Health degradation can
    // reorder either preference.
    return _heap.tiers().preferHealthy(TierPreference{_slow, _fast});
}

TierPreference
JengaStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(TierPreference{_fast, _slow});
}

void
JengaStrategy::evaluateReuseWindow()
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
    _reuseHist.sample(static_cast<uint64_t>(ratio * 100.0));

    if (ratio <= _config.reuseLow) {
        ++_lowStreak;
        _highStreak = 0;
    } else if (ratio >= _config.reuseHigh) {
        ++_highStreak;
        _lowStreak = 0;
    } else {
        _lowStreak = 0;
        _highStreak = 0;
    }

    Tracer &tracer = _heap.mem().machine().tracer();
    if (_lowStreak >= _config.hysteresis &&
        _promoteBatch.value() > _config.promoteBatchMin.value()) {
        _promoteBatch = FrameCount{std::max(
            _config.promoteBatchMin.value(), _promoteBatch.value() / 2)};
        _lowStreak = 0;
        ++_adaptations;
        tracer.emit(TraceEventType::PolicyRateAdapt,
                    _promoteBatch.value(), reused, sampled);
    } else if (_highStreak >= _config.hysteresis &&
               _promoteBatch.value() < _config.promoteBatchMax.value()) {
        _promoteBatch = FrameCount{std::min(
            _config.promoteBatchMax.value(), _promoteBatch.value() * 2)};
        _highStreak = 0;
        ++_adaptations;
        tracer.emit(TraceEventType::PolicyRateAdapt,
                    _promoteBatch.value(), reused, sampled);
    }
}

void
JengaStrategy::scanTick()
{
    if (!_running)
        return;
    ++_scanTicks;
    Machine &machine = _heap.mem().machine();
    TierManager &tiers = _heap.tiers();

    // Grade last tick's promotions before making new ones.
    evaluateReuseWindow();

    // Demotion is never throttled: pressure response stays sharp.
    if (tiers.tier(_fast).utilization() > _config.demoteWatermark) {
        _lru.scanTier(_fast, _config.scanBatch, _scanScratch);
        _victims.clear();
        for (const FrameRef &ref : _scanScratch.demoteCandidates) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.migrate(_victims, _slow);
    }

    // Promotion runs at the adapted rate.
    if (tiers.tier(_fast).utilization() < _config.promoteWatermark) {
        _lru.collectHot(_slow, _promoteBatch, _hotScratch);
        _victims.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.migrate(_victims, _fast);
        // Sample what actually landed in fast memory for next
        // tick's reuse check.
        const Tick now = machine.now();
        for (const FrameRef &ref : _victims) {
            if (_window.size() >= _config.reuseSampleCap)
                break;
            if (ref.valid() && ref->tier == _fast)
                _window.emplace_back(ref, now);
        }
    }

    // Fully throttled promotion also stretches the scan period —
    // scanning costs background traffic the workload is not earning.
    const Tick period =
        _promoteBatch.value() == _config.promoteBatchMin.value()
            ? 2 * _config.scanPeriod
            : _config.scanPeriod;
    scheduleTick(period, &JengaStrategy::scanTick);
}

void
JengaStrategy::start()
{
    if (_running)
        return;
    _running = true;
    scheduleTick(_config.scanPeriod, &JengaStrategy::scanTick);
}

void
JengaStrategy::stop()
{
    _running = false;
    _window.clear();
}

} // namespace kloc
