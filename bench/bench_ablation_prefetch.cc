/**
 * @file
 * §7.3 ablation: KLOCs and I/O prefetching.
 *
 * Runs RocksDB with the adaptive readahead on and off under Naive
 * and under KLOCs. The paper: prefetching amplifies fast-memory
 * pollution under Naive/Nimble (prefetched-but-cold pages linger),
 * while KLOCs can identify the kernel objects tied to cold pages
 * and demote them — readahead + KLOCs improves RocksDB by ~1.26x.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

double
run(const BenchConfig &config, const std::string &workload_name,
    const std::string &policy, bool readahead)
{
    // Memory-scarce configuration: total memory below the dataset so
    // cold reads exist and prefetching has something to hide.
    TwoTierPlatform::Config platform_config = twoTierConfig(config);
    platform_config.fastCapacity = 4 * kGiB;
    platform_config.slowCapacity = 16 * kGiB;
    platform_config.system.fs.readaheadEnabled = readahead;
    return runTwoTierPolicy(workload_name, policy, platform_config,
                            workloadConfig(config))
        .throughput;
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> workloads = {"rocksdb", "filebench"};
    const std::vector<std::string> strategies = {"naive", "nimble++",
                                                 "klocs"};

    // (workload, strategy, readahead) grid in print order; readahead
    // off is the even slot of each pair.
    const size_t runs = workloads.size() * strategies.size() * 2;
    const auto throughputs = sweep<double>(config, runs, [&](size_t i) {
        const std::string &workload =
            workloads[i / (strategies.size() * 2)];
        const std::string &policy =
            strategies[(i / 2) % strategies.size()];
        return run(config, workload, policy, i % 2 == 1);
    });

    JsonReport report("ablation_prefetch", config.outdir);
    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        std::printf("\n==== Ablation: readahead x strategy (%s, "
                    "memory-scarce) ====\n", workload.c_str());
        std::printf("%-18s %14s %14s %10s\n", "strategy", "no prefetch",
                    "prefetch", "gain");
        for (size_t s = 0; s < strategies.size(); ++s) {
            const std::string &policy = strategies[s];
            const size_t base = (w * strategies.size() + s) * 2;
            const double off = throughputs[base];
            const double on = throughputs[base + 1];
            std::printf("%-18s %14.0f %14.0f %9.2fx\n",
                        policy.c_str(), off, on,
                        off > 0 ? on / off : 1.0);
            report.add(workload + "." + policy + ".readahead_gain",
                       off > 0 ? on / off : 1.0, "x", "higher", true);
        }
    }
    report.write();
    std::printf("\npaper: prefetching helps KLOCs most (~1.26x on "
                "RocksDB) because cold prefetched pages are demoted "
                "promptly\n");
    return 0;
}
