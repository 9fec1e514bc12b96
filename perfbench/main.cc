/**
 * @file
 * perfbench — runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *   perfbench --list
 *
 * With --trace 0 it repeats the untraced run protocol until S seconds
 * have passed (at least kMinRuns times) and reports the end-to-end
 * metrics: the medians over the repeats of the run's CPU time, its
 * setup's and its measure phase's, each scaled to a reference host
 * speed (see README.md). With --trace 1 it makes one probe run, then
 * alternates traced and untraced runs for S seconds (at least one of
 * each) and reports the per-layer metrics. Every run is checked; the
 * last line of stdout is one JSON object with keys correct, attempted,
 * failed and metrics, and the exit code is 0 only when every check
 * passed. --list prints the workloads and metric tables as JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "base/logging.hh"
#include "perfbench.hh"

using namespace kloc;
using namespace kloc::perfbench;

namespace {

/** Untraced repeats per `--trace 0` run, however short S is. */
constexpr size_t kMinRuns = 3;

/** Calls per probe: p99 then has ten samples beyond it. */
constexpr unsigned kProbeCalls = 1000;

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    bool list = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", flag.c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::strtoull(value(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value(), nullptr);
        else if (flag == "--trace")
            args.trace = std::atoi(value());
        else if (flag == "--list")
            args.list = true;
        else
            fatal("unknown flag '%s'", flag.c_str());
    }
    if (!args.list && !findBenchWorkload(args.workload))
        fatal("unknown workload '%s' (see --list)", args.workload.c_str());
    if (args.trace != 0 && args.trace != 1)
        fatal("--trace wants 0 or 1");
    if (!(args.seconds > 0))
        fatal("--seconds wants a positive number");
    return args;
}

/** @p pick(run) for each of @p runs. */
template <typename Pick>
std::vector<double>
pickAll(const std::vector<RunRecord> &runs, Pick pick)
{
    std::vector<double> values;
    for (const RunRecord &run : runs)
        values.push_back(pick(run));
    return values;
}

template <typename Pick>
double
medianOf(const std::vector<RunRecord> &runs, Pick pick)
{
    return quantile(pickAll(runs, pick), 0.5);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * Output checks. Every run must complete its ops and give the same
 * snapshot digest and simulated throughput as the first run checked,
 * traced or not; a run failing any check counts as failed.
 */
class Checker
{
  public:
    explicit Checker(const BenchWorkload &workload) : _workload(workload) {}

    /** Check @p run plus @p extra problems found by its observer. */
    void
    check(const char *what, const RunRecord &run,
          std::vector<std::string> extra = {})
    {
        ++_attempted;
        std::vector<std::string> problems = std::move(extra);
        if (run.result.operations != _workload.ops) {
            problems.push_back("completed " +
                               std::to_string(run.result.operations) +
                               " of " + std::to_string(_workload.ops) +
                               " ops");
        }
        if (run.probeCallsTimed != 0)
            problems.push_back("probes ran inside the timed phases");
        if (!_reference) {
            _reference = run;
        } else {
            if (run.digest != _reference->digest)
                problems.push_back("snapshot digest differs from run 1");
            if (run.result.throughput() != _reference->result.throughput())
                problems.push_back("sim_ops_per_s differs from run 1");
        }
        if (!problems.empty())
            ++_failed;
        for (const std::string &problem : problems) {
            std::printf("CHECK FAILED (%s run %llu): %s\n", what,
                        static_cast<unsigned long long>(_attempted),
                        problem.c_str());
        }
    }

    /** A failure that belongs to no single run. */
    void
    fail(const std::string &problem)
    {
        _extraFailure = true;
        std::printf("CHECK FAILED: %s\n", problem.c_str());
    }

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }
    bool correct() const { return _failed == 0 && !_extraFailure; }

  private:
    const BenchWorkload &_workload;
    std::optional<RunRecord> _reference;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    bool _extraFailure = false;
};

class Deadline
{
  public:
    explicit Deadline(double seconds)
        : _end(std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds)))
    {}

    bool passed() const { return std::chrono::steady_clock::now() >= _end; }

  private:
    std::chrono::steady_clock::time_point _end;
};

/** The reference job's CPU seconds, averaged over a few calls. */
double
referenceSeconds()
{
    constexpr int kCalls = 2;
    double total = 0;
    for (int i = 0; i < kCalls; ++i)
        total += calibrationSeconds();
    return total / kCalls;
}

/** Times the reference job in the gaps before and after measurement. */
class SpeedGauge : public RunObserver
{
  public:
    explicit SpeedGauge(HostSpeed &speed) : _speed(speed) {}

    void
    onMeasureBegin(TwoTierPlatform &) override
    {
        _speed.measureBegin = referenceSeconds();
    }

    void
    afterMeasure(TwoTierPlatform &) override
    {
        _speed.measureEnd = referenceSeconds();
    }

  private:
    HostSpeed &_speed;
};

MetricValues
runEndToEnd(const BenchWorkload &workload, const Args &args, Checker &checker)
{
    const Deadline deadline(args.seconds);
    // On a shared host the same run's CPU time swings by up to 1.7x
    // with what other tenants do, in stretches of seconds to minutes.
    // Each repeat's phases are scaled by the reference job timed
    // beside them, and the metrics are medians over the repeats.
    std::vector<RunRecord> runs;
    double reference = referenceSeconds();
    while (runs.size() < kMinRuns || !deadline.passed()) {
        HostSpeed speed;
        speed.before = reference;
        SpeedGauge gauge(speed);
        RunRecord run = runProtocol(workload, args.seed, &gauge);
        speed.after = reference = referenceSeconds();
        checker.check("untraced", run);
        std::printf("run %zu: cpu %.4f s (wall %.4f s), setup %.4f s, "
                    "measure %.4f s; reference job %.2f-%.2f ms\n",
                    runs.size() + 1, run.times.total(), run.wallSeconds,
                    run.times.setup(), run.times.of(Phase::Measure),
                    1e3 * std::min({speed.before, speed.measureBegin,
                                    speed.measureEnd, speed.after}),
                    1e3 * std::max({speed.before, speed.measureBegin,
                                    speed.measureEnd, speed.after}));
        run.times = scaledTimes(run.times, speed);
        runs.push_back(run);
    }
    MetricValues m;
    m["run_cpu_s"] = medianOf(runs, [](const RunRecord &r) {
        return r.times.total();
    });
    m["setup_s"] = medianOf(runs, [](const RunRecord &r) {
        return r.times.setup();
    });
    m["measure_cpu_s"] = medianOf(runs, [](const RunRecord &r) {
        return r.times.of(Phase::Measure);
    });
    m["peak_rss_mb"] = peakRssMb();
    m["sim_ops_per_s"] = runs.front().result.throughput();
    std::printf("runs: %zu untraced\n", runs.size());
    return m;
}

std::vector<std::string>
ledgerProblems(const Ledger &ledger)
{
    std::vector<std::string> problems;
    for (const std::string &violation : ledger.violations())
        problems.push_back("invariant: " + violation);
    if (ledger.unpairedBrackets() != 0) {
        problems.push_back(std::to_string(ledger.unpairedBrackets()) +
                           " trace brackets left unpaired");
    }
    return problems;
}

MetricValues
runPerLayer(const BenchWorkload &workload, const Args &args, Checker &checker)
{
    const Deadline deadline(args.seconds);

    // Probes first, on a run whose times are not reported.
    Prober prober(kProbeCalls, args.seed);
    const RunRecord probed = runProtocol(workload, args.seed, &prober);
    std::vector<std::string> probe_problems;
    if (prober.failures() != 0) {
        probe_problems.push_back(std::to_string(prober.failures()) +
                                 " probe syscalls failed");
    }
    checker.check("probe", probed, probe_problems);

    std::vector<RunRecord> traced;
    std::vector<RunRecord> plain;
    MetricValues sim;
    uint64_t events = 0;
    while (traced.empty() || !deadline.passed()) {
        Ledger ledger;
        traced.push_back(runProtocol(workload, args.seed, &ledger));
        std::vector<std::string> problems = ledgerProblems(ledger);
        if (sim.empty()) {
            sim = ledger.simMetrics();
            events = ledger.measureEvents();
        } else if (ledger.simMetrics() != sim) {
            problems.push_back("simulated per-layer metrics differ from "
                               "the first traced run");
        }
        checker.check("traced", traced.back(), problems);
        plain.push_back(runProtocol(workload, args.seed));
        checker.check("untraced", plain.back());
    }

    auto phase = [&plain](Phase p) {
        return medianOf(plain, [p](const RunRecord &r) {
            return r.times.of(p);
        });
    };
    MetricValues m = sim;
    m["platform.build_s"] = phase(Phase::Build);
    m["workload.load_s"] = phase(Phase::Load);
    m["fs.sync_s"] = phase(Phase::Sync);
    m["sim.quiesce_s"] = phase(Phase::Quiesce);
    m["workload.teardown_s"] = phase(Phase::Teardown);
    m["platform.destroy_s"] = phase(Phase::Destroy);
    const double measure = phase(Phase::Measure);
    m["sim.host_ns_per_event"] =
        events ? measure * 1e9 / static_cast<double>(events) : 0.0;
    m["trace.overhead_frac"] = medianOf(traced, [](const RunRecord &r) {
        return r.times.of(Phase::Measure);
    }) / measure - 1.0;
    const MetricValues probes = prober.metrics();
    m.insert(probes.begin(), probes.end());
    std::printf("runs: 1 probe, %zu traced, %zu untraced\n", traced.size(),
                plain.size());
    return m;
}

void
printList()
{
    auto defs = [](const std::vector<MetricDef> &metrics) {
        std::string out;
        for (const MetricDef &def : metrics) {
            out += (out.empty() ? "" : ", ");
            out += "{\"name\": \"" + def.name + "\", \"unit\": \"" +
                   def.unit + "\", \"better\": \"" + def.better + "\"}";
        }
        return "[" + out + "]";
    };
    std::string workloads;
    for (const BenchWorkload &w : benchWorkloads())
        workloads += (workloads.empty() ? "\"" : ", \"") + w.name + "\"";
    std::printf("{\"workloads\": [%s], \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                workloads.c_str(), defs(endToEndMetrics()).c_str(),
                defs(perLayerMetrics()).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.list) {
        printList();
        return 0;
    }
    const BenchWorkload &workload = *findBenchWorkload(args.workload);
    std::printf("perfbench: %s (%s under %s, scale %u, %llu ops), "
                "seed %llu (held-out seed %llu), trace %d, %.0f s\n",
                workload.name.c_str(), workload.driver.c_str(),
                workload.policy.c_str(), workload.scale,
                static_cast<unsigned long long>(workload.ops),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kHeldOutSeed), args.trace,
                args.seconds);

    Checker checker(workload);
    const MetricValues values = args.trace
        ? runPerLayer(workload, args, checker)
        : runEndToEnd(workload, args, checker);
    const std::vector<MetricDef> &defs =
        args.trace ? perLayerMetrics() : endToEndMetrics();

    std::string json;
    for (const MetricDef &def : defs) {
        const auto it = values.find(def.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            checker.fail("metric " + def.name + " has no finite value");
            continue;
        }
        std::printf("  %-30s %16.6f %s\n", def.name.c_str(), it->second,
                    def.unit.c_str());
        char number[64];
        std::snprintf(number, sizeof number, "%.17g", it->second);
        json += (json.empty() ? "" : ", ");
        json += "\"" + def.name + "\": {\"value\": " + number +
                ", \"unit\": \"" + def.unit + "\"}";
    }
    std::printf("  %-30s %16llu of %llu runs\n", "failed",
                static_cast<unsigned long long>(checker.failed()),
                static_cast<unsigned long long>(checker.attempted()));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                checker.correct() ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                json.c_str());
    return checker.correct() ? 0 : 3;
}
