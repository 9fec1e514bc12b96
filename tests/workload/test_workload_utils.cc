/**
 * @file
 * Workload utility tests: the FdCache (RocksDB-style table cache),
 * arena helpers, and the measured-run protocol.
 */

#include <gtest/gtest.h>

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
    auto platform = std::make_unique<TwoTierPlatform>(config);
    platform->applyPolicyByName("klocs");
    return platform;
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

TEST(RunnerProtocol, QuiesceDrainsDirtyState)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().startDaemons();
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 500;
    auto workload = makeWorkload("rocksdb", config);
    runMeasured(sys, *workload);
    // After setup+quiesce+run, another quiesce leaves no dirty
    // backlog: a syncAll finds nothing to write.
    sys.fs().syncAll();
    const uint64_t wb = sys.fs().stats().writebackPages;
    sys.fs().syncAll();
    EXPECT_EQ(sys.fs().stats().writebackPages, wb);
    workload->teardown(sys);
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
