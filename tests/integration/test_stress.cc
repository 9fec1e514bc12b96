/**
 * @file
 * Stress and failure-injection tests: daemon storms (all periodic
 * engines at once, checking the journal's re-entrancy guard and LRU
 * bookkeeping under churn), memory exhaustion on the network rx
 * path, and API misuse death tests.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "platform/two_tier.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"
#include "support/lambda_events.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

TEST(Stress, DaemonStormStaysConsistent)
{
    // Aggressive periods: every daemon fires constantly while a
    // workload churns files; exercises nested event dispatch.
    TwoTierPlatform::Config config;
    config.scale = 512;
    config.system.fs.journalCommitPeriod = kMillisecond;
    config.system.fs.writebackPeriod = kMillisecond;
    TwoTierPlatform platform(config);
    System &sys = platform.sys();
    TieringStrategy::Config strat_config;
    strat_config.scanPeriod = 2 * kMillisecond;
    strat_config.klocDaemonPeriod = kMillisecond;
    sys.applyPolicy(std::make_unique<TieringStrategy>(
        *policyRow("klocs", PolicyPlatform::TwoTier),
        PolicyContext{sys.heap(), sys.lru(), sys.migrator(), &sys.kloc(),
                      platform.fastTier(), platform.slowTier()},
        strat_config));

    WorkloadConfig wl_config;
    wl_config.scale = 1024;
    wl_config.operations = 3000;
    EXPECT_GT(runMeasured(sys, "varmail", wl_config).result.operations, 0u);

    // Everything drained and balanced.
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
    EXPECT_EQ(sys.kloc().knodeCount(), 0u);
    EXPECT_EQ(sys.heap().liveAppPages(), 0u);
}

TEST(Stress, RxPathSurvivesMemoryExhaustion)
{
    // Tiny memory: skb allocation will fail under a flood.
    TwoTierPlatform::Config config;
    config.scale = 1;
    config.fastCapacity = 2 * kMiB;
    config.slowCapacity = 4 * kMiB;
    TwoTierPlatform platform(config, "naive");
    System &sys = platform.sys();

    const int sd = sys.net().socket();
    // Flood far beyond memory; drops must be counted, not crashed.
    for (int burst = 0; burst < 40; ++burst)
        sys.net().deliver(sd, 64 * kPageSize);
    EXPECT_GT(sys.net().stats().rxDrops, 0u);
    // Draining recovers service.
    sys.net().recv(sd, Bytes{~0ULL});
    const uint64_t delivered_before =
        sys.net().stats().packetsDelivered;
    sys.net().deliver(sd, kPageSize);
    EXPECT_GT(sys.net().stats().packetsDelivered, delivered_before);
    sys.net().closeSocket(sd);
}

TEST(Stress, FsWriteUnderTotalExhaustionBypassesCache)
{
    TwoTierPlatform::Config config;
    config.scale = 1;
    config.fastCapacity = 2 * kMiB;
    config.slowCapacity = 4 * kMiB;
    TwoTierPlatform platform(config, "naive");
    System &sys = platform.sys();
    const int fd = sys.fs().create("big");
    // Write 4x the total memory; the FS must keep going through
    // reclaim + cache bypass.
    const Bytes total = 24 * kMiB;
    Bytes written{};
    for (Bytes off{}; off < total; off += 64 * kPageSize)
        written += sys.fs().write(fd, off, 64 * kPageSize);
    EXPECT_EQ(written, total);
    EXPECT_GT(sys.fs().stats().reclaimedPages +
                  sys.fs().stats().cacheBypasses,
              0u);
    sys.fs().close(fd);
}

TEST(Stress, EventQueueClearDropsPending)
{
    EventQueue events;
    LambdaEvents later(events);
    int fired = 0;
    std::vector<Event *> nodes;
    for (int i = 0; i < 100; ++i)
        nodes.push_back(&later.at(Tick{i}, [&] { ++fired; }));
    events.clear();
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.nextDeadline(), std::numeric_limits<int64_t>::max());
    for (const Event *node : nodes)
        EXPECT_FALSE(node->pending());
    EXPECT_EQ(events.runDue(Tick{1000}), 0u);
    EXPECT_EQ(fired, 0);
}

TEST(StressDeath, DoubleCloseIsTolerated)
{
    TwoTierPlatform::Config config;
    config.scale = 1024;
    TwoTierPlatform platform(config, "naive");
    System &sys = platform.sys();
    const int fd = sys.fs().create("f");
    sys.fs().close(fd);
    sys.fs().close(fd);  // stale fd: must be a no-op, not a crash
    SUCCEED();
}

TEST(StressDeath, FreeingUntrackedObjectDies)
{
    TwoTierPlatform::Config config;
    config.scale = 1024;
    TwoTierPlatform platform(config, "klocs");
    System &sys = platform.sys();
    EXPECT_DEATH(
        {
            KernelObject obj(KobjKind::Inode);
            sys.kloc().removeObject(&obj);
        },
        "untracked");
}

TEST(StressDeath, UnmapWithLiveObjectsDies)
{
    TwoTierPlatform::Config config;
    config.scale = 1024;
    TwoTierPlatform platform(config, "klocs");
    System &sys = platform.sys();
    EXPECT_DEATH(
        {
            Knode *knode = sys.kloc().mapKnode(424242);
            auto obj = std::make_unique<KernelObject>(
                KobjKind::PageCachePage);
            sys.heap().allocBacking(*obj, true, knode->id);
            sys.kloc().addObject(knode, obj.get());
            sys.kloc().unmapKnode(knode);
        },
        "live objects");
}

TEST(Stress, RepeatedStrategySwitching)
{
    // Re-applying strategies mid-life must not corrupt state.
    TwoTierPlatform::Config config;
    config.scale = 512;
    TwoTierPlatform platform(config);
    System &sys = platform.sys();
    sys.fs().startDaemons();
    WorkloadConfig wl_config;
    wl_config.scale = 1024;
    wl_config.operations = 500;
    for (const char *policy :
         {"naive", "klocs", "nimble", "klocs", "nimble++"}) {
        platform.applyPolicyByName(policy);
        auto workload = makeWorkload("filebench", wl_config);
        workload->setup(sys);
        workload->run(sys);
        workload->teardown(sys);
    }
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
    EXPECT_EQ(sys.heap().liveAppPages(), 0u);
}

} // namespace
} // namespace kloc
