/**
 * @file
 * Integration tests asserting the *shapes* the paper's evaluation
 * reports, at reduced scale so they run inside the test suite:
 *
 *  - Fig. 2: kernel objects dominate footprints and references; slab
 *    objects are shorter-lived than cache pages, which are shorter-
 *    lived than app pages.
 *  - Fig. 4: KLOCs beats AllSlow and Nimble; AllFast is the bound.
 *  - Fig. 5b: KLOCs allocates less in slow memory than Naive and its
 *    migrations are demotion-dominated.
 *  - Fig. 5a protocol: KLOCs on the Optane platform beats static
 *    placement after the task escapes the interferer.
 *  - Table 6: KLOC metadata stays below 1% of memory.
 */

#include <gtest/gtest.h>

#include "platform/optane.hh"
#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

WorkloadConfig
midConfig()
{
    WorkloadConfig config;
    config.scale = 256;
    config.operations = 15000;
    return config;
}

TwoTierPlatform::Config
midPlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    return config;
}

double
runStrategy(const std::string &workload_name, const std::string &policy,
            MigrationStats *migration = nullptr,
            uint64_t *slow_cache_allocs = nullptr)
{
    TwoTierPlatform platform(midPlatform(), policy);
    System &sys = platform.sys();
    const MeasuredRun run = runMeasured(sys, workload_name, midConfig());
    if (migration)
        *migration = sys.migrator().stats();
    if (slow_cache_allocs) {
        *slow_cache_allocs =
            sys.tiers().tier(platform.slowTier())
                .cumulativeAllocPages(ObjClass::PageCache);
    }
    return run.result.throughput();
}

TEST(Fig2Shape, KernelObjectsDominateFootprint)
{
    TwoTierPlatform platform(midPlatform(), "naive");
    System &sys = platform.sys();
    const MeasuredRun run = runMeasured(sys, "rocksdb", midConfig());

    uint64_t kernel_pages = 0;
    for (unsigned c = 1; c < kNumObjClasses; ++c) {
        kernel_pages +=
            sys.tiers().cumulativeAllocPages(static_cast<ObjClass>(c));
    }
    const uint64_t app_pages = sys.heap().cumulativeAppPages();
    EXPECT_GT(kernel_pages, app_pages)
        << "I/O-intensive workloads allocate more kernel pages than "
           "app pages (Fig. 2a)";
}

TEST(Fig2Shape, KernelReferencesAreMajor)
{
    TwoTierPlatform platform(midPlatform(), "naive");
    System &sys = platform.sys();
    const MeasuredRun run = runMeasured(sys, "filebench", midConfig());
    const double kernel_share =
        static_cast<double>(sys.machine().kernelRefs()) /
        static_cast<double>(sys.machine().kernelRefs() +
                            sys.machine().userRefs());
    EXPECT_GT(kernel_share, 0.5)
        << "filebench spends most references in the kernel (Fig. 2c)";
}

TEST(Fig2Shape, LifetimeOrderingSlabCacheApp)
{
    TwoTierPlatform platform(midPlatform(), "naive");
    System &sys = platform.sys();
    // Discarded at once: teardown frees the arena -> app lifetimes.
    runMeasured(sys, "redis", midConfig());

    const double skb_ms =
        sys.heap().objLifetimeHist(KobjKind::SkbuffHead).dist().mean();
    const double cache_ms =
        sys.heap()
            .objLifetimeHist(KobjKind::PageCachePage)
            .dist()
            .mean();
    const double app_ms =
        sys.tiers().lifetimeHist(ObjClass::App).dist().mean();
    ASSERT_GT(skb_ms, 0.0);
    ASSERT_GT(cache_ms, 0.0);
    ASSERT_GT(app_ms, 0.0);
    EXPECT_LT(skb_ms, cache_ms)
        << "socket buffers must be shorter-lived than cache pages";
    EXPECT_LT(cache_ms, app_ms)
        << "cache pages must be shorter-lived than app pages (Fig. 2d)";
}

TEST(Fig4Shape, KlocsBeatsBaselinesOnRocksDb)
{
    const double all_slow = runStrategy("rocksdb", "all_slow");
    const double nimble = runStrategy("rocksdb", "nimble");
    const double klocs = runStrategy("rocksdb", "klocs");
    const double all_fast = runStrategy("rocksdb", "all_fast");
    EXPECT_GT(klocs, all_slow * 1.2)
        << "KLOCs must clearly beat the all-slow bound";
    EXPECT_GT(klocs, nimble)
        << "KLOCs must beat application-only tiering (Nimble)";
    EXPECT_GT(all_fast, klocs) << "AllFast is the upper bound";
}

TEST(Fig5bShape, KlocsAvoidsSlowAllocationsAndDemotes)
{
    MigrationStats naive_migration, klocs_migration;
    uint64_t naive_slow = 0, klocs_slow = 0;
    runStrategy("rocksdb", "naive", &naive_migration, &naive_slow);
    runStrategy("rocksdb", "klocs", &klocs_migration, &klocs_slow);
    EXPECT_LT(klocs_slow, naive_slow)
        << "KLOCs allocates page-cache pages in slow memory less often";
    EXPECT_EQ(naive_migration.migratedPages, 0u);
    ASSERT_GT(klocs_migration.migratedPages, 0u);
    const double demote_share =
        static_cast<double>(klocs_migration.demotedPages) /
        static_cast<double>(klocs_migration.migratedPages);
    EXPECT_GT(demote_share, 0.7)
        << "paper: ~88% of KLOC migrations are demotions";
}

TEST(Fig5aShape, KlocsFollowsTheTaskAcrossSockets)
{
    auto run_optane = [](const char *policy) {
        OptanePlatform::Config config;
        config.scale = 256;
        OptanePlatform platform(config, policy);
        return runOptaneMeasured(platform, "filebench", midConfig())
            .result.throughput();
    };
    const double remote = run_optane("static");
    const double klocs = run_optane("klocs");
    EXPECT_GT(klocs, remote * 1.1)
        << "KLOCs must pull kernel objects to the task's socket";
}

TEST(Table6Shape, MetadataBelowOnePercent)
{
    TwoTierPlatform platform(midPlatform(), "klocs");
    System &sys = platform.sys();
    const MeasuredRun run = runMeasured(sys, "rocksdb", midConfig());
    const Bytes total_memory =
        sys.tiers().tier(platform.fastTier()).spec().capacity +
        sys.tiers().tier(platform.slowTier()).spec().capacity;
    EXPECT_LT(sys.kloc().peakMetadataBytes(), total_memory / 100)
        << "KLOC metadata must stay below 1% of memory (Table 6)";
    EXPECT_GT(sys.kloc().peakMetadataBytes(), 0u);
}

TEST(AblationShape, PerCpuListsCutTreeAccesses)
{
    auto drive = [](bool lists) {
        TwoTierPlatform platform(midPlatform(), "klocs");
        System &sys = platform.sys();
        sys.kloc().setUsePerCpuLists(lists);
        std::vector<Knode *> knodes;
        for (unsigned i = 0; i < 64; ++i)
            knodes.push_back(sys.kloc().mapKnode(5000 + i));
        ZipfianGenerator zipf(64, 0.99, 3);
        const uint64_t before = sys.kloc().treeNodesVisited();
        for (unsigned i = 0; i < 20000; ++i) {
            sys.machine().setCurrentCpu(i % 16);
            sys.kloc().findKnode(5000 + zipf.next());
        }
        const uint64_t visits = sys.kloc().treeNodesVisited() - before;
        for (Knode *knode : knodes)
            sys.kloc().unmapKnode(knode);
        return visits;
    };
    const uint64_t with_lists = drive(true);
    const uint64_t without = drive(false);
    EXPECT_LT(with_lists, without / 2)
        << "per-CPU lists should cut rbtree accesses roughly in half "
           "(paper: 54%)";
}

} // namespace
} // namespace kloc
