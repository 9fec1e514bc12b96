/**
 * @file
 * Policy tests: per-strategy placement preferences (Table 5),
 * install() side effects, scan-driven migration, and the AutoNUMA
 * family for the Optane platform.
 */

#include <gtest/gtest.h>

#include "platform/optane.hh"
#include "platform/two_tier.hh"
#include "policy/autonuma.hh"

namespace kloc {
namespace {

class StrategyTest : public ::testing::Test
{
  protected:
    StrategyTest()
    {
        TwoTierPlatform::Config config;
        config.scale = 1024;  // tiny tiers, fast tests
        platform = std::make_unique<TwoTierPlatform>(config);
    }

    TierPreference
    kernelPref(const std::string &policy, ObjClass cls, bool active)
    {
        return platform->applyPolicyByName(policy).kernelPreference(
            cls, active);
    }

    std::unique_ptr<TwoTierPlatform> platform;
};

TEST_F(StrategyTest, AllFastAllSlowAreStatic)
{
    const TierId fast = platform->fastTier();
    const TierId slow = platform->slowTier();
    EXPECT_EQ(kernelPref("all_fast", ObjClass::PageCache, true),
              TierPreference{fast});
    EXPECT_EQ(kernelPref("all_slow", ObjClass::PageCache, true),
              TierPreference{slow});
}

TEST_F(StrategyTest, NaiveIsGreedyFastFirst)
{
    const auto pref =
        kernelPref("naive", ObjClass::SockBuf, false);
    ASSERT_EQ(pref.size(), 2u);
    EXPECT_EQ(pref[0], platform->fastTier());
}

TEST_F(StrategyTest, NimblePutsKernelObjectsInSlow)
{
    const auto pref =
        kernelPref("nimble", ObjClass::PageCache, true);
    EXPECT_EQ(pref[0], platform->slowTier())
        << "prior art places kernel objects in slow memory (§3.2)";
    // ...but application pages go fast-first.
    Policy &nimble = platform->applyPolicyByName("nimble");
    EXPECT_EQ(nimble.appPreference()[0], platform->fastTier());
}

TEST_F(StrategyTest, KlocFollowsKnodeHotness)
{
    const auto hot =
        kernelPref("klocs", ObjClass::PageCache, true);
    const auto cold =
        kernelPref("klocs", ObjClass::PageCache, false);
    EXPECT_EQ(hot[0], platform->fastTier());
    EXPECT_EQ(cold[0], platform->slowTier());
    // KLOC metadata is pinned fast regardless.
    const auto meta =
        kernelPref("klocs", ObjClass::KlocMeta, false);
    EXPECT_EQ(meta[0], platform->fastTier());
}

TEST_F(StrategyTest, InstallTogglesKlocMachinery)
{
    platform->applyPolicyByName("klocs");
    EXPECT_TRUE(platform->sys().kloc().enabled());
    EXPECT_TRUE(platform->sys().heap().klocInterface());
    EXPECT_TRUE(platform->sys().net().earlyDemux());

    platform->applyPolicyByName("nimble");
    EXPECT_FALSE(platform->sys().kloc().enabled());
    EXPECT_FALSE(platform->sys().heap().klocInterface());
    EXPECT_FALSE(platform->sys().net().earlyDemux());
}

TEST_F(StrategyTest, UnmanagedClassPinnedFastUnderKloc)
{
    platform->applyPolicyByName("klocs");
    platform->sys().kloc().setManagedClasses(
        ~(1u << static_cast<unsigned>(ObjClass::Journal)));
    const auto pref = platform->policy()->kernelPreference(
        ObjClass::Journal, /*active=*/false);
    EXPECT_EQ(pref[0], platform->fastTier())
        << "excluded classes are always placed in fast memory (§7.3)";
    platform->sys().kloc().setManagedClasses(~0u);
}

TEST_F(StrategyTest, ScanTickDemotesUnderPressure)
{
    System &sys = platform->sys();
    platform->applyPolicyByName("nimble");
    // Fill the fast tier with cold app pages beyond the watermark.
    std::vector<Frame *> pages;
    Tier &fast = sys.tiers().tier(platform->fastTier());
    while (fast.utilization() < 0.95) {
        Frame *frame = sys.heap().allocAppPage();
        ASSERT_NE(frame, nullptr);
        pages.push_back(frame);
    }
    const uint64_t before = sys.migrator().stats().demotedPages;
    // Let several scan periods elapse; scans need two passes to
    // deactivate and demote.
    sys.machine().charge(kSecond);
    EXPECT_GT(sys.migrator().stats().demotedPages, before)
        << "Nimble never demoted cold app pages";
    for (Frame *frame : pages) {
        if (frame->tier != kInvalidTier)
            sys.heap().freeAppPage(frame);
    }
}

TEST_F(StrategyTest, ReappliedKlocsRunsOneDaemonChain)
{
    // klocs -> nimble -> klocs at one instant stops the KLOC daemon
    // and starts it again within one period. The stopped chain's
    // pending run must not keep going beside the new one.
    auto demotePasses = [](TwoTierPlatform &p) {
        const uint64_t before = p.sys().kloc().stats().demotePasses;
        for (int i = 0; i < 100; ++i)
            p.sys().machine().charge(kMillisecond);
        return p.sys().kloc().stats().demotePasses - before;
    };
    TwoTierPlatform::Config config;
    config.scale = 1024;
    TwoTierPlatform fresh(config, "klocs");
    const uint64_t once = demotePasses(fresh);
    EXPECT_EQ(once, 50u) << "one pass per 2 ms daemon period";

    platform->applyPolicyByName("klocs");
    platform->applyPolicyByName("nimble");
    platform->applyPolicyByName("klocs");
    EXPECT_EQ(demotePasses(*platform), once);
}

TEST(AutoNumaTest, LocalFirstPreferences)
{
    OptanePlatform platform;
    auto &policy = dynamic_cast<AutoNumaPolicy &>(
        platform.applyPolicyByName("autonuma"));
    platform.moveTaskToSocket(0);
    EXPECT_EQ(policy.localTier(), platform.socketTiers()[0]);
    EXPECT_EQ(policy.appPreference()[0], platform.socketTiers()[0]);
    platform.moveTaskToSocket(1);
    EXPECT_EQ(policy.localTier(), platform.socketTiers()[1]);
    EXPECT_EQ(policy.kernelPreference(ObjClass::PageCache, true)[0],
              platform.socketTiers()[1]);
}

TEST(AutoNumaTest, BalanceTickMigratesHotAppPagesToTaskSocket)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    platform.applyPolicyByName("autonuma");
    platform.moveTaskToSocket(0);

    // Allocate app pages locally on socket 0 and make them hot.
    std::vector<Frame *> pages;
    for (int i = 0; i < 64; ++i) {
        Frame *frame = sys.heap().allocAppPage();
        ASSERT_NE(frame, nullptr);
        ASSERT_EQ(frame->tier, platform.socketTiers()[0]);
        sys.mem().touch(frame, kPageSize, AccessType::Read);
        sys.mem().touch(frame, kPageSize, AccessType::Read);
        pages.push_back(frame);
    }
    // The task moves; balancing should follow with the pages.
    platform.moveTaskToSocket(1);
    for (int round = 0; round < 6; ++round) {
        for (Frame *frame : pages)
            sys.mem().touch(frame, Bytes{64}, AccessType::Read);
        sys.machine().charge(60 * kMillisecond);
    }
    uint64_t moved = 0;
    for (Frame *frame : pages) {
        if (frame->tier == platform.socketTiers()[1])
            ++moved;
    }
    EXPECT_GT(moved, 32u) << "AutoNUMA failed to follow the task";
    for (Frame *frame : pages)
        sys.heap().freeAppPage(frame);
}

TEST(AutoNumaTest, StaticModeNeverMigrates)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    platform.applyPolicyByName("static");
    std::vector<Frame *> pages;
    platform.moveTaskToSocket(0);
    for (int i = 0; i < 16; ++i)
        pages.push_back(sys.heap().allocAppPage());
    platform.moveTaskToSocket(1);
    sys.machine().charge(kSecond);
    EXPECT_EQ(sys.migrator().stats().migratedPages, 0u);
    for (Frame *frame : pages)
        sys.heap().freeAppPage(frame);
}

TEST(PlatformTest, TwoTierScalesCapacities)
{
    TwoTierPlatform::Config config;
    config.scale = 64;
    config.fastCapacity = 8 * kGiB;
    config.bandwidthRatio = 8;
    TwoTierPlatform platform(config);
    const TierSpec &fast =
        platform.sys().tiers().tier(platform.fastTier()).spec();
    const TierSpec &slow =
        platform.sys().tiers().tier(platform.slowTier()).spec();
    EXPECT_EQ(fast.capacity, 8 * kGiB / 64);
    EXPECT_EQ(fast.readBandwidth / slow.readBandwidth, 8u);
    EXPECT_EQ(fast.readLatency, slow.readLatency)
        << "throttled DRAM differs in bandwidth, not latency";
}

TEST(PlatformTest, OptaneBlendsDramAndPmemTiming)
{
    OptanePlatform platform;
    const TierSpec &tier =
        platform.sys().tiers().tier(platform.socketTiers()[0]).spec();
    const Tick dram = platform.config().dramLatency;
    EXPECT_GT(tier.readLatency, dram);
    EXPECT_LT(tier.readLatency, 3 * dram);
    EXPECT_GT(tier.writeLatency, tier.readLatency)
        << "PMEM writes are slower than reads";
    EXPECT_LT(tier.readBandwidth, platform.config().dramBandwidth);
}

TEST(PlatformTest, InterferenceRaisesLoadedSocketCosts)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    const TierId s0 = platform.socketTiers()[0];
    const Tick quiet =
        sys.machine().memModel().rawCost(s0, Bytes{4096}, AccessType::Read, 0);
    platform.setInterference(true);
    const Tick loaded =
        sys.machine().memModel().rawCost(s0, Bytes{4096}, AccessType::Read, 0);
    EXPECT_GT(loaded, quiet);
    platform.setInterference(false);
}

TEST(PlatformTest, TaskCpusStayOnSocket)
{
    OptanePlatform platform;
    platform.moveTaskToSocket(1);
    for (const unsigned cpu : platform.taskCpus())
        EXPECT_EQ(platform.sys().machine().socketOf(cpu), 1);
}

} // namespace
} // namespace kloc
