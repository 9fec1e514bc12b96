/**
 * @file
 * Figure 5a: the Optane Memory-Mode platform.
 *
 * Protocol (§6.2, runOptaneMeasured): a streaming interferer loads
 * socket 0; the workload sets up while scheduled there; the scheduler
 * then moves the task to socket 1 and each policy decides what
 * follows it:
 *
 *   all-remote  — static: nothing migrates (baseline, speedup 1.0)
 *   autonuma    — stock AutoNUMA: application pages follow
 *   nimble      — AutoNUMA with parallel page copy
 *   klocs       — AutoNUMA + kernel objects via knodes
 *   ideal-local — data was local to socket 1 from the start
 *
 * Paper: ideal 1.6x, KLOCs ~1.5x over AutoNUMA-baseline terms
 * (KLOCs 1.4x over Nimble).
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

double
runOptane(const BenchConfig &bench_config,
          const std::string &workload_name, const std::string &policy,
          bool ideal_local)
{
    OptanePlatform::Config config;
    config.scale = bench_config.scale;
    OptanePlatform platform(config, policy);
    return runOptaneMeasured(platform, workload_name,
                             workloadConfig(bench_config), ideal_local)
        .result.throughput();
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    // The two bounds run the static policy; their labels are the
    // figure's (and the metric keys').
    struct Row
    {
        const char *label;
        const char *policy;  ///< optanePolicyNames() entry
        bool idealLocal;
    };
    const std::vector<Row> rows = {
        {"all-remote", "static", false},
        {"autonuma", "autonuma", false},
        {"nimble", "nimble", false},
        {"klocs", "klocs", false},
        {"ideal-local", "static", true},
    };
    const std::vector<std::string> workloads = workloadNames();

    // Workload-major, policy-minor: the order the table prints in.
    const size_t runs = workloads.size() * rows.size();
    const auto throughputs = sweep<double>(config, runs, [&](size_t i) {
        const std::string &workload = workloads[i / rows.size()];
        const Row &row = rows[i % rows.size()];
        return runOptane(config, workload, row.policy, row.idealLocal);
    });

    section("Figure 5a: Optane Memory Mode, speedup vs all-remote");
    std::printf("%-11s", "workload");
    for (const Row &row : rows)
        std::printf(" %16s", row.label);
    std::printf("\n");

    JsonReport report("fig5a_optane", config.outdir);
    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        std::printf("%-11s", workload.c_str());
        double baseline = 0;
        for (size_t r = 0; r < rows.size(); ++r) {
            const Row &row = rows[r];
            const double throughput = throughputs[w * rows.size() + r];
            if (baseline == 0)
                baseline = throughput;
            std::printf(" %8.0f (%4.2fx)", throughput,
                        baseline > 0 ? throughput / baseline : 1.0);
            report.add(workload + "." + row.label + ".ops_per_s",
                       throughput, "ops/s", "higher", true);
        }
        std::printf("\n");
    }
    std::printf("\nvalues: ops/s (speedup vs all-remote)\n");
    report.write();
    return 0;
}
