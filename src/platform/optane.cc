#include "platform/optane.hh"

#include <cmath>

#include "base/logging.hh"

namespace kloc {

OptanePlatform::OptanePlatform(const Config &config) : _config(config)
{
    System::Config sys_cfg = config.system;
    if (sys_cfg.sockets < 2)
        sys_cfg.sockets = 2;
    _system = std::make_unique<System>(sys_cfg);

    // Effective DRAM-cache-fronted PMEM timing.
    const double h = config.dramCacheHitFraction;
    const auto blend = [h](double dram, double pmem) {
        return h * dram + (1.0 - h) * pmem;
    };
    const Tick read_lat = static_cast<Tick>(std::llround(
        blend(static_cast<double>(config.dramLatency),
              3.0 * static_cast<double>(config.dramLatency))));
    const Tick write_lat = static_cast<Tick>(std::llround(
        blend(static_cast<double>(config.dramLatency),
              5.0 * static_cast<double>(config.dramLatency))));
    // Bandwidth blends harmonically (time per byte adds).
    const double dram_bw = static_cast<double>(config.dramBandwidth);
    const double pmem_bw = dram_bw / 4.0;
    const auto eff_bw = static_cast<Bytes>(
        1.0 / (h / dram_bw + (1.0 - h) / pmem_bw));

    for (unsigned socket = 0; socket < sys_cfg.sockets; ++socket) {
        TierSpec spec;
        spec.name = "optane-s" + std::to_string(socket);
        spec.capacity = config.socketCapacity / config.scale;
        spec.readLatency = read_lat;
        spec.writeLatency = write_lat;
        spec.readBandwidth = eff_bw;
        spec.writeBandwidth = eff_bw;
        spec.socket = static_cast<int>(socket);
        _socketTiers.push_back(_system->tiers().addTier(spec));
    }

    _system->buildSubsystems();
}

void
OptanePlatform::moveTaskToSocket(int socket)
{
    KLOC_ASSERT(socket >= 0 &&
                socket < static_cast<int>(
                    _system->machine().socketCount()),
                "bad socket %d", socket);
    _taskSocket = socket;
    const auto cpus = taskCpus();
    _system->machine().setCurrentCpu(cpus.front());
}

std::vector<unsigned>
OptanePlatform::taskCpus() const
{
    std::vector<unsigned> cpus;
    Machine &machine = _system->machine();
    for (unsigned cpu = 0; cpu < machine.cpuCount(); ++cpu) {
        if (machine.socketOf(cpu) == _taskSocket)
            cpus.push_back(cpu);
    }
    KLOC_ASSERT(!cpus.empty(), "socket %d has no cpus", _taskSocket);
    return cpus;
}

void
OptanePlatform::setInterference(bool enabled)
{
    if (enabled) {
        _system->machine().memModel().setInterference(
            _config.interferedSocket, _config.interferenceFactor);
    } else {
        _system->machine().memModel().clearInterference();
    }
}

} // namespace kloc
