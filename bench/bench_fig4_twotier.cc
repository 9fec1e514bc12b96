/**
 * @file
 * Figure 4: overall performance on the two-tier memory platform.
 *
 * For every workload, runs all Table 5 strategies plus the AllFast /
 * AllSlow bounds and prints speedup relative to AllSlow — the same
 * series as the paper's Fig. 4 bars.
 *
 * Expected shape (paper): KLOCs outperforms Naive/Nimble/Nimble++
 * everywhere except Cassandra (where it ties Nimble++); AllFast is
 * the upper bound.
 *
 * The (workload x strategy) grid runs on the RunPool (see
 * bench/parallel.hh); rows are printed and reported from the ordered
 * result vector, so the JSON artifact is identical at any KLOC_JOBS.
 */

#include <algorithm>
#include <ctime>

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

/**
 * Process-CPU milliseconds of one (workload, Kloc) run. CPU time
 * rather than wall clock: on shared (or single-core) runners, wall
 * time includes whatever the host steals, and the trace-overhead
 * delta is a few percent — well under that noise. Runs serially
 * (after the pool has drained): a timing probe must not share the
 * machine with concurrent runs.
 */
double
cpuMs(const BenchConfig &config, const std::string &workload, bool trace)
{
    timespec start{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &start);
    runTwoTierPolicy(workload, "klocs", twoTierConfig(config),
                     workloadConfig(config), trace);
    timespec end{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &end);
    return 1e3 * (static_cast<double>(end.tv_sec - start.tv_sec)) +
           1e-6 * (static_cast<double>(end.tv_nsec - start.tv_nsec));
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    JsonReport report("fig4_twotier", config.outdir);
    const std::vector<std::string> strategies = {
        "all_slow", "naive", "nimble", "nimble++", "klocs_nomigration",
        "klocs",    "all_fast",
    };
    const std::vector<std::string> workloads = workloadNames();

    // Workload-major, strategy-minor: the order the table prints in.
    const size_t runs = workloads.size() * strategies.size();
    const auto outcomes = sweep<RunOutcome>(
        config, runs, [&](size_t i) {
            const std::string &workload = workloads[i / strategies.size()];
            const std::string &policy = strategies[i % strategies.size()];
            return runTwoTierPolicy(workload, policy, twoTierConfig(config),
                                    workloadConfig(config), config.trace);
        });

    section("Figure 4: two-tier speedup vs All Slow Mem");
    std::printf("platform: fast %llu MiB @ 1:%u bandwidth ratio, "
                "%llu ops/run, scale 1:%u\n",
                static_cast<unsigned long long>(
                    twoTierConfig(config).fastCapacity / config.scale /
                    kMiB),
                twoTierConfig(config).bandwidthRatio,
                static_cast<unsigned long long>(config.ops),
                config.scale);

    std::printf("\n%-11s", "workload");
    for (const std::string &policy : strategies)
        std::printf(" %17s", policy.c_str());
    std::printf("\n");

    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        std::printf("%-11s", workload.c_str());
        double all_slow = 0.0;
        for (size_t s = 0; s < strategies.size(); ++s) {
            const std::string &policy = strategies[s];
            const RunOutcome &outcome =
                outcomes[w * strategies.size() + s];
            if (policy == "all_slow")
                all_slow = outcome.throughput;
            std::printf(" %9.0f (%4.2fx)", outcome.throughput,
                        all_slow > 0 ? outcome.throughput / all_slow
                                     : 1.0);
            // Simulated-time throughput is machine-independent, so
            // it gates regressions; so do migration rates.
            report.add(workload + "." + policy + ".ops_per_s",
                       outcome.throughput, "ops/s", "higher", true);
            if (policy == "klocs" && all_slow > 0) {
                report.add(workload + ".klocs.speedup_vs_all_slow",
                           outcome.throughput / all_slow, "x", "higher",
                           true);
                report.add(workload + ".klocs.migrated_pages",
                           static_cast<double>(
                               outcome.migration.migratedPages),
                           "pages", "higher", true);
            }
        }
        std::printf("\n");
    }
    std::printf("\nvalues: ops/s (speedup vs all_slow)\n");

    // --trace overhead: the same run, stopwatch-timed, with the event
    // ring off and on. CPU time varies by host and compiler, so it
    // never gates — it exists for before/after comparison of the
    // emit fast path.
    section("--trace overhead (process CPU time, klocs strategy)");
    const std::string overhead_wl = workloads.front();
    cpuMs(config, overhead_wl, false);  // warm-up
    // Run off/on back-to-back pairs and take the median per-pair
    // overhead: the two halves of a pair share the host's frequency
    // regime, so drift across the binary's lifetime cancels, and the
    // median discards pairs a regime change split down the middle.
    std::vector<double> off_samples, on_samples, pct_samples;
    for (int rep = 0; rep < 5; ++rep) {
        const double off = cpuMs(config, overhead_wl, false);
        const double on = cpuMs(config, overhead_wl, true);
        off_samples.push_back(off);
        on_samples.push_back(on);
        pct_samples.push_back(off > 0 ? 100.0 * (on - off) / off : 0.0);
    }
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double off_ms = median(off_samples);
    const double on_ms = median(on_samples);
    const double overhead_pct = median(pct_samples);
    std::printf("%s: trace off %.1f ms, trace on %.1f ms "
                "(overhead %.1f%%)\n",
                overhead_wl.c_str(), off_ms, on_ms, overhead_pct);
    report.add("trace_overhead.cpu_ms_off", off_ms, "ms", "lower",
               false);
    report.add("trace_overhead.cpu_ms_on", on_ms, "ms", "lower", false);
    report.add("trace_overhead.pct", overhead_pct, "%", "lower", false);

    report.write();
    return 0;
}
