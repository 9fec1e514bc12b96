/**
 * @file
 * §5 future-work hypothesis: KLOCs with transparent huge pages.
 *
 * The paper's multi-page-size discussion predicts higher gains with
 * THP because direct placement avoids splitting/migrating huge
 * pages. This bench backs the app arena with 2 MB pages and compares
 * base-page vs huge-page runs under Nimble++ and KLOCs.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

double
run(const BenchConfig &bench_config, const std::string &workload_name,
    const std::string &policy, bool huge)
{
    WorkloadConfig config = workloadConfig(bench_config);
    config.hugePages = huge;
    return runTwoTierPolicy(workload_name, policy,
                            twoTierConfig(bench_config), config)
        .throughput;
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> workloads = {"redis", "cassandra"};
    const std::vector<std::string> strategies = {"nimble++", "klocs"};

    // (workload, strategy, page size) grid in print order; huge pages
    // are the odd slot of each pair.
    const size_t runs = workloads.size() * strategies.size() * 2;
    const auto throughputs = sweep<double>(config, runs, [&](size_t i) {
        const std::string &workload =
            workloads[i / (strategies.size() * 2)];
        const std::string &policy =
            strategies[(i / 2) % strategies.size()];
        return run(config, workload, policy, i % 2 == 1);
    });

    section("Extension: transparent huge pages for the app arena (§5)");
    std::printf("%-11s %-18s %12s %12s %8s\n", "workload", "strategy",
                "4KB pages", "2MB pages", "gain");
    JsonReport report("ablation_thp", config.outdir);
    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t s = 0; s < strategies.size(); ++s) {
            const std::string &policy = strategies[s];
            const size_t slot = (w * strategies.size() + s) * 2;
            const double base = throughputs[slot];
            const double huge = throughputs[slot + 1];
            std::printf("%-11s %-18s %12.0f %12.0f %7.2fx\n",
                        workloads[w].c_str(), policy.c_str(), base,
                        huge, base > 0 ? huge / base : 1.0);
            report.add(workloads[w] + "." + policy + ".thp_gain",
                       base > 0 ? huge / base : 1.0, "x", "higher",
                       true);
        }
    }
    report.write();
    std::printf("\npaper (§5) hypothesised KLOCs gains with THP; in "
                "this model huge pages\n*reduce* tiering effectiveness: "
                "2 MB blocks hold hot and cold data\nhostage together "
                "and migrate at 512x the cost — the classic huge-page/"
                "\ntiering granularity tension (one reason Nimble "
                "exists).\n");
    return 0;
}
