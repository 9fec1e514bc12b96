/**
 * @file
 * Shared experiment harness for the per-figure bench binaries.
 *
 * Each figure binary builds fresh platforms per configuration, runs
 * the measured protocol (setup -> quiesce -> measure), and prints
 * the same rows/series the paper reports. Runs default to the size
 * EXPERIMENTS.md quotes and the baseline gates: 60000 operations at
 * 1:64. Environment knobs (parsed ONCE into a BenchConfig at
 * startup — see BenchConfig::fromEnv):
 *
 *   KLOC_BENCH_OPS=N     override measured operations per run
 *   KLOC_BENCH_SCALE=N   override the 1:N platform scale
 *   KLOC_BENCH_OUTDIR=D  where BENCH_<name>.json artifacts land
 *   KLOC_JOBS=N          run-executor worker count (bench/parallel.hh)
 */

#ifndef KLOC_BENCH_HARNESS_HH
#define KLOC_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/parse.hh"
#include "base/run_pool.hh"
#include "bench/report.hh"
#include "platform/optane.hh"
#include "platform/two_tier.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace bench {

/**
 * Every environment knob the bench pipeline honours, parsed once at
 * startup and passed to runs explicitly. Runs never call getenv()
 * themselves: repeated lookups were both wasteful and a data race
 * waiting to happen once runs execute on RunPool workers (setenv on
 * the main thread against getenv on a worker is UB).
 */
struct BenchConfig
{
    uint64_t ops = 60000;     ///< measured operations per run
    unsigned scale = 64;      ///< 1:N platform/dataset scale divisor
    unsigned jobs = 1;        ///< run-executor worker threads
    std::string outdir = "."; ///< BENCH_<name>.json destination

    /**
     * Parse the KLOC_BENCH_* / KLOC_JOBS environment, once.
     * KLOC_BENCH_OPS and KLOC_BENCH_SCALE take whole numbers >= 1;
     * anything else is a usage error.
     */
    static BenchConfig
    fromEnv()
    {
        BenchConfig config;
        if (const char *env = std::getenv("KLOC_BENCH_OPS"))
            config.ops = parseNumber("KLOC_BENCH_OPS", env, 1);
        if (const char *env = std::getenv("KLOC_BENCH_SCALE")) {
            config.scale = static_cast<unsigned>(
                parseNumber("KLOC_BENCH_SCALE", env, 1,
                            std::numeric_limits<unsigned>::max()));
        }
        config.jobs = RunPool::defaultWorkers();
        if (const char *env = std::getenv("KLOC_BENCH_OUTDIR"))
            config.outdir = env;
        return config;
    }
};

/** Outcome of one measured two-tier run. */
struct RunOutcome
{
    double throughput = 0.0;
    WorkloadResult result;
    MigrationStats migration;
    uint64_t slowPageCacheAllocPages = 0;
    uint64_t slowSlabAllocPages = 0;
    Bytes klocPeakMetadata{};
    uint64_t kernelRefs = 0;
    uint64_t userRefs = 0;
    /** Adaptive-rate rows (Jenga) only: promote batch after
     *  adaptation, and adaptations. */
    uint64_t finalPromoteBatch = 0;
    uint64_t rateAdaptations = 0;
};

/**
 * Build a two-tier platform for the registry policy @p policy_name,
 * run @p workload_name once, and harvest the outcome before teardown.
 * Shared-nothing: every call builds its own platform and trace sink
 * from the explicit configs, so calls may run concurrently on RunPool
 * workers.
 */
inline RunOutcome
runTwoTierPolicy(const std::string &workload_name,
                 const std::string &policy_name,
                 const TwoTierPlatform::Config &platform_config,
                 const WorkloadConfig &workload_config)
{
    TwoTierPlatform platform(platform_config, policy_name);
    System &sys = platform.sys();
    const MeasuredRun run =
        runMeasured(sys, workload_name, workload_config);
    const WorkloadResult &result = run.result;

    RunOutcome outcome;
    outcome.throughput = result.throughput();
    outcome.result = result;
    outcome.migration = sys.migrator().stats();
    const Tier &slow = sys.tiers().tier(platform.slowTier());
    outcome.slowPageCacheAllocPages =
        slow.cumulativeAllocPages(ObjClass::PageCache);
    outcome.slowSlabAllocPages =
        slow.cumulativeAllocPages(ObjClass::FsSlab) +
        slow.cumulativeAllocPages(ObjClass::Journal) +
        slow.cumulativeAllocPages(ObjClass::BlockIo) +
        slow.cumulativeAllocPages(ObjClass::SockBuf);
    outcome.klocPeakMetadata = sys.kloc().peakMetadataBytes();
    outcome.kernelRefs = sys.machine().kernelRefs();
    outcome.userRefs = sys.machine().userRefs();
    const auto *tiering =
        dynamic_cast<const TieringStrategy *>(platform.policy());
    if (tiering != nullptr && tiering->row().adaptiveRate) {
        outcome.finalPromoteBatch = tiering->promoteBatch().value();
        outcome.rateAdaptations = tiering->adaptations();
    }
    return outcome;
}

/** Default two-tier platform config at @p config's bench scale. */
inline TwoTierPlatform::Config
twoTierConfig(const BenchConfig &config)
{
    TwoTierPlatform::Config platform_config;
    platform_config.scale = config.scale;
    return platform_config;
}

/** Default workload config at @p config's bench scale. */
inline WorkloadConfig
workloadConfig(const BenchConfig &config)
{
    WorkloadConfig workload_config;
    workload_config.scale = config.scale;
    workload_config.operations = config.ops;
    return workload_config;
}

/** Print a separator + section title. */
inline void
section(const char *title)
{
    std::printf("\n==== %s ====\n", title);
}

} // namespace bench
} // namespace kloc

#endif // KLOC_BENCH_HARNESS_HH
