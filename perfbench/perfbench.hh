/**
 * @file
 * The repository benchmark: host time of the simulator's public run
 * protocol, and a traced per-layer ledger of the same runs.
 *
 * One run follows what `klocsim run` does: build the two-tier
 * platform, apply a registry policy, start the fs daemons, then
 * Workload::setup, FileSystem::syncAll, the kQuiesceWindow settle,
 * Workload::run and Workload::teardown, and destroy the platform. The
 * protocol times each of those calls from outside. Observers hook the
 * gaps between the timed calls: the Ledger traces a run, the Prober
 * times calls into each layer after measurement. See README.md.
 */

#ifndef KLOC_PERFBENCH_PERFBENCH_HH
#define KLOC_PERFBENCH_PERFBENCH_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "platform/two_tier.hh"
#include "spans.hh"
#include "trace/invariants.hh"
#include "workload/workload.hh"

namespace kloc::perfbench {

/** Seed of the default runs (WorkloadConfig::seed's default). */
inline constexpr uint64_t kDefaultSeed = 42;

/** Seed kept out of tuning; a claimed gain is confirmed on it. */
inline constexpr uint64_t kHeldOutSeed = 7919;

/** One benchmark workload: a registry driver under a registry policy. */
struct BenchWorkload
{
    std::string name;
    std::string driver;   ///< makeWorkload() name
    std::string policy;   ///< policyNames() name
    unsigned scale = 64;  ///< platform and dataset scale divisor
    uint64_t ops = 0;     ///< measured operations (closed loop)
};

/** The benchmark's workloads, in the order `--workload all` runs them. */
const std::vector<BenchWorkload> &benchWorkloads();

/** Workload named @p name, or nullptr. */
const BenchWorkload *findBenchWorkload(const std::string &name);

// -- metrics ---------------------------------------------------------------

/** Name, unit and direction of one reported metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;  ///< "lower" or "higher"
};

/** Reported without tracing (`--trace 0`). */
const std::vector<MetricDef> &endToEndMetrics();

/** Reported by the traced run (`--trace 1`). */
const std::vector<MetricDef> &perLayerMetrics();

using MetricValues = std::map<std::string, double>;

// -- the timed protocol ----------------------------------------------------

/** Protocol phases, in run order. */
enum class Phase : uint8_t {
    Build = 0,  ///< platform, policy, daemons, driver construction
    Load,       ///< Workload::setup
    Sync,       ///< FileSystem::syncAll
    Quiesce,    ///< kQuiesceWindow settle
    Measure,    ///< Workload::run
    Teardown,   ///< Workload::teardown
    Destroy,    ///< platform destruction
    NumPhases
};

inline constexpr unsigned kNumPhases = static_cast<unsigned>(Phase::NumPhases);

/**
 * CPU seconds of the simulation thread in one run, per phase. The
 * simulator does no real I/O and runs one thread, so on an idle host
 * this is its wall time; on a shared host it leaves out the time the
 * thread waited for a core while other tenants ran.
 */
struct PhaseTimes
{
    std::array<double, kNumPhases> seconds{};

    double of(Phase phase) const
    {
        return seconds[static_cast<unsigned>(phase)];
    }

    /** Build through quiesce. */
    double setup() const;

    /** The whole run: the sum of every phase. */
    double total() const;
};

/** CPU seconds the calling thread has used so far. */
double threadCpuSeconds();

/**
 * CPU seconds of one fixed reference job that shares no code with the
 * simulator: a pointer chase over 4 MiB, ordered and hashed maps of
 * small heap objects, std::function calls and a sort.
 */
double calibrationSeconds();

/**
 * calibrationSeconds() on the host the end-to-end figures are scaled
 * to: a 4-vCPU Intel Xeon virtual machine at a quiet moment.
 */
inline constexpr double kReferenceCalibrationS = 0.025;

/**
 * The reference job's CPU seconds beside one run: before it, in the
 * gap after quiesce, in the gap after measurement, and after it.
 */
struct HostSpeed
{
    double before = kReferenceCalibrationS;
    double measureBegin = kReferenceCalibrationS;
    double measureEnd = kReferenceCalibrationS;
    double after = kReferenceCalibrationS;
};

/**
 * @p times scaled to the reference host speed: setup by the reference
 * job's time before and after it, measure likewise, and teardown and
 * destroy likewise.
 */
PhaseTimes scaledTimes(const PhaseTimes &times, const HostSpeed &speed);

/** Hooks into the untimed gaps between a run's timed phases. */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    /** Platform constructed; the policy is not applied yet. */
    virtual void onBuilt(TwoTierPlatform &) {}

    /** Quiesce done; Workload::run is next. */
    virtual void onMeasureBegin(TwoTierPlatform &) {}

    /** Workload::run returned. */
    virtual void onMeasureEnd(TwoTierPlatform &) {}

    /** After measurement, before teardown; the loaded system. */
    virtual void afterMeasure(TwoTierPlatform &) {}

    /** Teardown done; the platform is destroyed next. */
    virtual void beforeDestroy(TwoTierPlatform &) {}
};

/** Outcome of one protocol run. */
struct RunRecord
{
    PhaseTimes times;
    /** Host wall seconds of the whole run, observers included. */
    double wallSeconds = 0;
    WorkloadResult result;
    /** Digest of System::snapshot() right after Workload::run. */
    uint64_t digest = 0;
    /** Probe calls made while a phase timer ran; must be 0. */
    uint64_t probeCallsTimed = 0;
};

/** Run @p workload once with @p seed through the timed protocol. */
RunRecord runProtocol(const BenchWorkload &workload, uint64_t seed,
                      RunObserver *observer = nullptr);

// -- traced ledger ---------------------------------------------------------

/**
 * Traces one run: the InvariantChecker over every event, spans from
 * the Start/End brackets, event counts and counter deltas over the
 * measure phase. Measure-phase events are selected by seq, which the
 * tracer stamps at emission, so late batch delivery cannot misfile
 * them.
 */
class Ledger : public RunObserver
{
  public:
    Ledger() = default;
    Ledger(const Ledger &) = delete;
    Ledger &operator=(const Ledger &) = delete;

    void onBuilt(TwoTierPlatform &platform) override;
    void onMeasureBegin(TwoTierPlatform &platform) override;
    void onMeasureEnd(TwoTierPlatform &platform) override;
    void beforeDestroy(TwoTierPlatform &platform) override;

    /** Invariant violations seen over the whole run. */
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

    /** Trace events emitted during Workload::run. */
    uint64_t measureEvents() const { return _seqEnd - _seqBegin; }

    /** Brackets left unpaired at the end of the run. */
    uint64_t unpairedBrackets() const { return _unpaired; }

    /** The simulated-work metrics of the measure phase. */
    MetricValues simMetrics() const;

  private:
    /** Counters read off the subsystems, for measure-phase deltas. */
    struct Counters
    {
        uint64_t readHits = 0;
        uint64_t readMisses = 0;
        uint64_t migAttempts = 0;
        uint64_t migMoved = 0;
        uint64_t lruPagesVisited = 0;
        uint64_t percpuHits = 0;
        uint64_t percpuMisses = 0;
        uint64_t treeNodesVisited = 0;
        uint64_t packetsDelivered = 0;
        uint64_t earlyDemux = 0;
        uint64_t lateDemux = 0;
        uint64_t rxDrops = 0;
        int64_t kernelRefTicks = 0;
        int64_t userRefTicks = 0;

        static Counters read(System &sys);
    };

    void consume(const TraceEvent &event);

    bool
    inMeasure(uint64_t seq) const
    {
        return seq >= _seqBegin && seq < _seqEnd;
    }

    Tracer *_tracer = nullptr;
    int _listenerId = 0;
    std::unique_ptr<InvariantChecker> _checker;
    std::vector<std::string> _violations;
    SpanPairer _pairer;
    uint64_t _seqBegin = ~0ULL;
    uint64_t _seqEnd = ~0ULL;
    uint64_t _unpaired = 0;
    std::array<uint64_t, kNumTraceEventTypes> _eventCounts{};
    std::array<uint64_t, kNumSpanKinds> _spanCounts{};
    std::array<int64_t, kNumSpanKinds> _spanTicks{};
    Counters _before;
    Counters _after;
};

// -- probes ----------------------------------------------------------------

/**
 * Times a fixed number of calls into each layer's public functions on
 * the loaded system, after measurement. The run it observes reports
 * no times: its teardown works on the state the probes left.
 */
class Prober : public RunObserver
{
  public:
    /** @p calls per probe; @p seed picks files and offsets. */
    Prober(unsigned calls, uint64_t seed) : _calls(calls), _seed(seed) {}

    void afterMeasure(TwoTierPlatform &platform) override;

    /** p50 and p99 host µs per call of every probe. */
    MetricValues metrics() const;

    /** Host µs of each call, per probe name. */
    const std::map<std::string, std::vector<double>> &samples() const
    {
        return _samples;
    }

    /** Probe calls whose syscall failed (create, open or unlink). */
    uint64_t failures() const { return _failures; }

  private:
    unsigned _calls;
    uint64_t _seed;
    std::map<std::string, std::vector<double>> _samples;
    uint64_t _failures = 0;
};

/** Probe calls made so far in this process. */
uint64_t probeCalls();

/** The probes, in report order (metric stems such as "fs.read_us"). */
const std::vector<std::string> &probeNames();

/** Nearest-rank @p q quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double q);

} // namespace kloc::perfbench

#endif // KLOC_PERFBENCH_PERFBENCH_HH
