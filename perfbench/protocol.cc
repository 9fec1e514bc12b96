#include <time.h>

#include <chrono>
#include <cstring>

#include "perfbench.hh"
#include "workload/runner.hh"

namespace kloc::perfbench {

const std::vector<BenchWorkload> &
benchWorkloads()
{
    // Why each is here: README.md and BENCHMARK.json.
    static const std::vector<BenchWorkload> workloads = {
        {"rocksdb_klocs", "rocksdb", "klocs", 32, 1000000},
        {"varmail_klocs", "varmail", "klocs", 64, 10000},
        {"thrash_nomad", "thrash", "nomad", 64, 200000},
    };
    return workloads;
}

const BenchWorkload *
findBenchWorkload(const std::string &name)
{
    for (const BenchWorkload &workload : benchWorkloads()) {
        if (workload.name == name)
            return &workload;
    }
    return nullptr;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"run_cpu_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"measure_cpu_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"sim_ops_per_s", "1/s", "higher"},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = [] {
        std::vector<MetricDef> m = {
            // Host phases of the untraced runs.
            {"platform.build_s", "s", "lower"},
            {"workload.load_s", "s", "lower"},
            {"fs.sync_s", "s", "lower"},
            {"sim.quiesce_s", "s", "lower"},
            {"workload.teardown_s", "s", "lower"},
            {"platform.destroy_s", "s", "lower"},
            {"sim.host_ns_per_event", "ns", "lower"},
            {"trace.overhead_frac", "frac", "lower"},
        };
        for (const std::string &probe : probeNames()) {
            m.push_back({probe + ".p50", "us", "lower"});
            m.push_back({probe + ".p99", "us", "lower"});
        }
        // Simulated work of the measure phase; identical on every
        // run of one seed. sim_ms is virtual time, not host time.
        const std::vector<MetricDef> simulated = {
            {"fs.journal_commits", "count", "lower"},
            {"fs.journal_commit_sim_ms", "sim_ms", "lower"},
            {"fs.journal_detaches", "count", "lower"},
            {"fs.journal_detach_sim_ms", "sim_ms", "lower"},
            {"fs.bios", "count", "lower"},
            {"fs.bio_sim_ms", "sim_ms", "lower"},
            {"fs.read_hit_ratio", "ratio", "higher"},
            {"mem.migrations", "count", "lower"},
            {"mem.migration_sim_ms", "sim_ms", "lower"},
            {"mem.migration_success_ratio", "ratio", "higher"},
            {"mem.lru_scans", "count", "lower"},
            {"mem.lru_scanned_pages", "count", "lower"},
            {"mem.frame_allocs", "count", "lower"},
            {"alloc.buddy_splits", "count", "lower"},
            {"kloc.knode_maps", "count", "lower"},
            {"kloc.obj_tracks", "count", "lower"},
            {"kloc.percpu_hit_ratio", "ratio", "higher"},
            {"kloc.tree_nodes_visited", "count", "lower"},
            {"policy.txn_abort_ratio", "ratio", "lower"},
            {"policy.shadow_reuse_ratio", "ratio", "higher"},
            {"net.packets_delivered", "count", "higher"},
            {"net.early_demux_ratio", "ratio", "higher"},
            {"net.rx_drops", "count", "lower"},
            {"sim.kernel_ref_share", "ratio", "lower"},
            {"sim.measure_events", "count", "lower"},
        };
        m.insert(m.end(), simulated.begin(), simulated.end());
        return m;
    }();
    return metrics;
}

double
PhaseTimes::setup() const
{
    return of(Phase::Build) + of(Phase::Load) + of(Phase::Sync) +
           of(Phase::Quiesce);
}

PhaseTimes
scaledTimes(const PhaseTimes &times, const HostSpeed &speed)
{
    auto factor = [](double a, double b) {
        return 2 * kReferenceCalibrationS / (a + b);
    };
    const double setup = factor(speed.before, speed.measureBegin);
    const double measure = factor(speed.measureBegin, speed.measureEnd);
    const double rest = factor(speed.measureEnd, speed.after);
    PhaseTimes scaled;
    for (unsigned p = 0; p < kNumPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        scaled.seconds[p] = times.seconds[p] *
            (phase < Phase::Measure ? setup
             : phase == Phase::Measure ? measure : rest);
    }
    return scaled;
}

double
PhaseTimes::total() const
{
    double total = 0;
    for (const double s : seconds)
        total += s;
    return total;
}

namespace {

/** FNV-1a digest of every name and value bit pattern in @p stats. */
uint64_t
statDigest(const StatSet &stats)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](const void *data, size_t len) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            hash ^= bytes[i];
            hash *= 0x100000001b3ULL;
        }
    };
    for (const auto &[name, value] : stats.values()) {
        mix(name.data(), name.size() + 1);  // with the terminator
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix(&bits, sizeof bits);
    }
    return hash;
}

/**
 * Accumulates CPU time into phases. Time between stop() and the next
 * start() belongs to no phase: observers run there.
 */
class PhaseTimer
{
  public:
    explicit PhaseTimer(PhaseTimes &times) : _times(times) {}

    void
    start()
    {
        _callsAtStart = probeCalls();
        _start = threadCpuSeconds();
    }

    void
    stop(Phase phase)
    {
        const double end = threadCpuSeconds();
        _times.seconds[static_cast<unsigned>(phase)] += end - _start;
        _probeCallsTimed += probeCalls() - _callsAtStart;
    }

    uint64_t probeCallsTimed() const { return _probeCallsTimed; }

  private:
    PhaseTimes &_times;
    double _start = 0;
    uint64_t _callsAtStart = 0;
    uint64_t _probeCallsTimed = 0;
};

} // namespace

double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

RunRecord
runProtocol(const BenchWorkload &spec, uint64_t seed, RunObserver *observer)
{
    RunObserver none;
    RunObserver &obs = observer ? *observer : none;
    RunRecord record;
    PhaseTimer timer(record.times);
    const auto wall_start = std::chrono::steady_clock::now();

    timer.start();
    TwoTierPlatform::Config platform_config;
    platform_config.scale = spec.scale;
    auto platform = std::make_unique<TwoTierPlatform>(platform_config);
    timer.stop(Phase::Build);
    obs.onBuilt(*platform);

    timer.start();
    System &sys = platform->sys();
    platform->applyPolicyByName(spec.policy);
    sys.fs().startDaemons();
    WorkloadConfig workload_config;
    workload_config.scale = spec.scale;
    workload_config.operations = spec.ops;
    workload_config.seed = seed;
    auto workload = makeWorkload(spec.driver, workload_config);
    timer.stop(Phase::Build);

    {
        // The same batch window runMeasured opens.
        TraceBatch batch(sys.machine().tracer());
        timer.start();
        workload->setup(sys);
        timer.stop(Phase::Load);
        timer.start();
        sys.fs().syncAll();
        timer.stop(Phase::Sync);
        timer.start();
        sys.machine().charge(kQuiesceWindow);
        timer.stop(Phase::Quiesce);
        obs.onMeasureBegin(*platform);
        timer.start();
        record.result = workload->run(sys);
        timer.stop(Phase::Measure);
        obs.onMeasureEnd(*platform);
    }
    record.digest = statDigest(sys.snapshot());
    obs.afterMeasure(*platform);

    timer.start();
    workload->teardown(sys);
    timer.stop(Phase::Teardown);
    obs.beforeDestroy(*platform);

    timer.start();
    workload.reset();
    platform.reset();
    timer.stop(Phase::Destroy);

    record.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - wall_start).count();
    record.probeCallsTimed = timer.probeCallsTimed();
    return record;
}

} // namespace kloc::perfbench
