/**
 * @file
 * Workload utility tests: the FdCache (RocksDB-style table cache),
 * arena helpers, and the measured-run protocol.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

std::unique_ptr<TwoTierPlatform>
makePlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    return std::make_unique<TwoTierPlatform>(config, "klocs");
}

TEST(FdCacheTest, OpensOnDemandAndReusesHits)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().close(sys.fs().create("a"));
    sys.fs().close(sys.fs().create("b"));

    FdCache cache(4);
    const int fd_a = cache.get(sys, "a");
    ASSERT_GE(fd_a, 0);
    EXPECT_EQ(cache.get(sys, "a"), fd_a) << "hit must reuse the fd";
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.get(sys, "b"), 0);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.get(sys, "missing"), -1);
    cache.clear(sys);
    EXPECT_EQ(cache.size(), 0u);
    sys.fs().unlink("a");
    sys.fs().unlink("b");
}

TEST(FdCacheTest, EvictsLruAndClosesFiles)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    for (int i = 0; i < 6; ++i)
        sys.fs().close(sys.fs().create("f" + std::to_string(i)));

    FdCache cache(3);
    for (int i = 0; i < 6; ++i)
        cache.get(sys, "f" + std::to_string(i));
    EXPECT_EQ(cache.size(), 3u);
    // The evicted files' knodes went inactive again.
    EXPECT_FALSE(sys.fs().knodeOf("f0")->inuse);
    EXPECT_TRUE(sys.fs().knodeOf("f5")->inuse);
    cache.clear(sys);
    for (int i = 0; i < 6; ++i)
        sys.fs().unlink("f" + std::to_string(i));
}

TEST(FdCacheTest, DropClosesBeforeUnlink)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().close(sys.fs().create("victim"));
    FdCache cache(4);
    cache.get(sys, "victim");
    EXPECT_FALSE(sys.fs().unlink("victim")) << "open via cache";
    cache.drop(sys, "victim");
    EXPECT_TRUE(sys.fs().unlink("victim"));
    cache.drop(sys, "victim");  // idempotent on absent names
}

/** A small rocksdb run: enough for the FS daemons to fire. */
WorkloadConfig
smallRocksDb()
{
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 500;
    return config;
}

TEST(RunnerProtocol, QuiesceDrainsDirtyState)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "rocksdb", smallRocksDb());
    // After setup+quiesce+run, another quiesce leaves no dirty
    // backlog: a syncAll finds nothing to write.
    sys.fs().syncAll();
    const uint64_t wb = sys.fs().stats().writebackPages;
    sys.fs().syncAll();
    EXPECT_EQ(sys.fs().stats().writebackPages, wb);
}

/** runMeasured starts the FS daemons; a caller need not. */
TEST(RunnerProtocol, StartsTheDaemonsItself)
{
    auto measure = [](bool caller_starts_daemons) {
        auto platform = makePlatform();
        System &sys = platform->sys();
        if (caller_starts_daemons)
            sys.fs().startDaemons();
        const MeasuredRun run =
            runMeasured(sys, "rocksdb", smallRocksDb());
        return std::pair(run.result.elapsed,
                         sys.fs().stats().writebackPages);
    };
    const auto started = measure(true);
    const auto implicit = measure(false);
    EXPECT_EQ(implicit.first, started.first);
    EXPECT_EQ(implicit.second, started.second);
}

/** A held MeasuredRun keeps the dataset; its end tears it down. */
TEST(RunnerProtocol, HeldRunTearsDownWhenItEnds)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    {
        const MeasuredRun run =
            runMeasured(sys, "rocksdb", smallRocksDb());
        EXPECT_GT(sys.fs().liveInodes(), 0u);
    }
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
}

TEST(RunnerProtocol, DiscardedRunTearsDownAtOnce)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    runMeasured(sys, "rocksdb", smallRocksDb());
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
}

/** all_fast's fast tier holds everything; other policies keep it. */
TEST(RunnerProtocol, PlatformIsSizedForItsPolicy)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    const auto fast_capacity = [](TwoTierPlatform &platform) {
        return platform.sys().tiers().tier(platform.fastTier())
            .spec().capacity;
    };
    TwoTierPlatform all_fast(config, "all_fast");
    EXPECT_EQ(fast_capacity(all_fast),
              (config.fastCapacity + config.slowCapacity) / config.scale);
    EXPECT_EQ(std::string(all_fast.policy()->name()), "all_fast");
    TwoTierPlatform klocs(config, "klocs");
    EXPECT_EQ(fast_capacity(klocs), config.fastCapacity / config.scale);
    EXPECT_EQ(std::string(klocs.policy()->name()), "klocs");
}

TEST(RunnerProtocol, SetCpusRedirectsRotation)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 64;
    config.cpus = {2};
    auto workload = makeWorkload("filebench", config);
    workload->setup(sys);
    workload->run(sys);
    EXPECT_EQ(sys.machine().currentCpu(), 2u);
    workload->setCpus({5});
    workload->run(sys);
    EXPECT_EQ(sys.machine().currentCpu(), 5u);
    workload->teardown(sys);
}

} // namespace
} // namespace kloc
