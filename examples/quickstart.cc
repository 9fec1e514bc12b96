/**
 * @file
 * Quickstart: build the two-tier platform, enable KLOCs, run a small
 * filesystem workload, and inspect what the abstraction did.
 *
 *   $ ./quickstart [policy] [workload]
 *
 * where policy is any two-tier name `klocsim list` prints (default
 * klocs) and workload any workload it lists (default rocksdb).
 *
 * The run is the shared protocol (workload/runner.hh): load, quiesce,
 * measure. It has no hook between quiesce and measurement, so the
 * reference and device totals below cover the load phase too.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

int
main(int argc, char **argv)
{
    const std::string policy = argc > 1 ? argv[1] : "klocs";
    const std::string workload_name = argc > 2 ? argv[2] : "rocksdb";

    // A scaled-down two-tier machine: the paper's 8 GB fast tier at
    // 1:64 scale, slow tier at a quarter of fast bandwidth.
    TwoTierPlatform::Config config;
    config.scale = 64;
    TwoTierPlatform platform(config, policy);
    System &sys = platform.sys();

    std::printf("two-tier platform: fast %llu MiB / slow %llu MiB\n",
                static_cast<unsigned long long>(
                    sys.tiers().tier(platform.fastTier()).spec().capacity /
                    kMiB),
                static_cast<unsigned long long>(
                    sys.tiers().tier(platform.slowTier()).spec().capacity /
                    kMiB));

    std::printf("strategy: %s\n", policy.c_str());

    // Run a small workload; `run` tears it down when main returns.
    WorkloadConfig wl_config;
    wl_config.scale = 64;
    wl_config.operations = 100000;
    const MeasuredRun run = runMeasured(sys, workload_name, wl_config);
    const WorkloadResult &result = run.result;

    std::printf("\n%s: %llu ops in %.1f ms virtual -> %.0f ops/s\n",
                workload_name.c_str(),
                static_cast<unsigned long long>(result.operations),
                static_cast<double>(result.elapsed) / kMillisecond,
                result.throughput());

    const Tier &fast = sys.tiers().tier(platform.fastTier());
    const Tier &slow = sys.tiers().tier(platform.slowTier());
    std::printf("\nfast tier: %5.1f%% used   slow tier: %5.1f%% used\n",
                fast.utilization() * 100.0, slow.utilization() * 100.0);
    for (unsigned c = 0; c < kNumObjClasses; ++c) {
        const auto cls = static_cast<ObjClass>(c);
        std::printf("  %-12s fast %8llu pages   slow %8llu pages\n",
                    objClassName(cls),
                    static_cast<unsigned long long>(
                        fast.residentPages(cls)),
                    static_cast<unsigned long long>(
                        slow.residentPages(cls)));
    }

    const FsStats &fss = sys.fs().stats();
    std::printf("\nfs: hits %llu misses %llu readahead %llu reclaimed %llu "
                "writeback %llu bypass %llu\n",
                (unsigned long long)fss.readPageHits,
                (unsigned long long)fss.readPageMisses,
                (unsigned long long)fss.readaheadPages,
                (unsigned long long)fss.reclaimedPages,
                (unsigned long long)fss.writebackPages,
                (unsigned long long)fss.cacheBypasses);
    std::printf("device: %llu reqs %llu MiB\n",
                (unsigned long long)sys.fs().device().requests(),
                (unsigned long long)(sys.fs().device().bytesTransferred() /
                                     kMiB));
    std::printf("refs: kernel %llu (%.1f ms) user %llu (%.1f ms)\n",
                (unsigned long long)sys.machine().kernelRefs(),
                (double)sys.machine().kernelRefTicks() / kMillisecond,
                (unsigned long long)sys.machine().userRefs(),
                (double)sys.machine().userRefTicks() / kMillisecond);

    const MigrationStats &mig = sys.migrator().stats();
    std::printf("\nmigrations: %llu pages (%llu demoted, %llu promoted)\n",
                static_cast<unsigned long long>(mig.migratedPages),
                static_cast<unsigned long long>(mig.demotedPages),
                static_cast<unsigned long long>(mig.promotedPages));

    const KlocStats &ks = sys.kloc().stats();
    std::printf("kloc: %llu knodes created, %llu objects tracked\n",
                static_cast<unsigned long long>(ks.knodesCreated),
                static_cast<unsigned long long>(ks.objectsTracked));
    std::printf("kloc metadata: %.1f MiB peak\n",
                static_cast<double>(sys.kloc().peakMetadataBytes()) /
                static_cast<double>(kMiB));
    return 0;
}
