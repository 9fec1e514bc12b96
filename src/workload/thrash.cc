#include "workload/thrash.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kloc {

ThrashWorkload::ThrashWorkload(const WorkloadConfig &config)
    : Workload(config), _fdCache(kLogFiles)
{
}

void
ThrashWorkload::setup(System &sys)
{
    growArena(sys, scaled(kPaperArena) / kPageSize);
    for (uint64_t i = 0; i < kLogFiles; ++i) {
        const std::string name = "thrash_log_" + std::to_string(i);
        const int fd = sys.fs().create(name);
        KLOC_ASSERT(fd >= 0, "log file exists");
        sys.fs().close(fd);
        _logs.push_back(name);
    }
}

uint64_t
ThrashWorkload::workingSetAt(uint64_t op) const
{
    const auto arena_pages = static_cast<double>(arenaSize());
    const auto ws_min = static_cast<uint64_t>(arena_pages * kWsMinFraction);
    const auto ws_max = static_cast<uint64_t>(arena_pages * kWsMaxFraction);
    // Triangle wave: 0 -> half -> 0 over each period.
    const uint64_t phase = op % kWavePeriod;
    constexpr uint64_t half = kWavePeriod / 2;
    const uint64_t level = phase < half ? phase : kWavePeriod - phase;
    const uint64_t ws = ws_min + (ws_max - ws_min) * level / half;
    return std::max<uint64_t>(ws, 1);
}

WorkloadResult
ThrashWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    const uint64_t arena = std::max<uint64_t>(arenaSize(), 1);
    uint64_t cursor = 0;
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const uint64_t ws = workingSetAt(op);
        const uint64_t base = (op * kSlidePages) % arena;
        // Sweep the window cyclically, a chunk per op, so every
        // resident page is touched once per lap; pages the slide
        // abandons go cold until the window wraps back around.
        cursor = sweepChunk(base, ws, arena, cursor, kChunkPages,
                            [&](uint64_t first, uint64_t len, bool write) {
                                touchArenaRun(sys, first, len, 4 * kKiB,
                                              write ? AccessType::Write
                                                    : AccessType::Read);
                            });
        if (op % kLogInterval == 0) {
            const int fd =
                _fdCache.get(sys, _logs[(op / kLogInterval) % kLogFiles]);
            if (fd >= 0)
                sys.fs().write(fd, Bytes{0}, kLogBytes);
        }
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
ThrashWorkload::teardown(System &sys)
{
    _fdCache.clear(sys);
    for (const auto &name : _logs)
        sys.fs().unlink(name);
    _logs.clear();
    Workload::teardown(sys);
}

} // namespace kloc
