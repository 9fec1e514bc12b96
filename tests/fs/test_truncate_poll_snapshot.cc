/**
 * @file
 * Tests for truncate(), socket poll(), and System::snapshot().
 */

#include <gtest/gtest.h>

#include "platform/two_tier.hh"

namespace kloc {
namespace {

std::unique_ptr<TwoTierPlatform>
makePlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    return std::make_unique<TwoTierPlatform>(config, "klocs");
}

TEST(Truncate, ShrinkFreesPagesAndExtents)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("t");
    sys.fs().write(fd, Bytes{0}, 1200 * kPageSize);  // > 2 extents
    const uint64_t cached_before = sys.fs().cachedPages();
    ASSERT_TRUE(sys.fs().truncate(fd, 100 * kPageSize));
    EXPECT_EQ(sys.fs().fileSize("t"), 100 * kPageSize);
    EXPECT_LT(sys.fs().cachedPages(), cached_before);
    EXPECT_EQ(sys.fs().cachedPages(), 100u);
    // Reads past the new end return nothing.
    EXPECT_EQ(sys.fs().read(fd, 100 * kPageSize, kPageSize), 0u);
    // Reads below it still work.
    EXPECT_EQ(sys.fs().read(fd, Bytes{0}, kPageSize), kPageSize);
    sys.fs().close(fd);
}

TEST(Truncate, ToZeroEmptiesCache)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("t");
    sys.fs().write(fd, Bytes{0}, 64 * kPageSize);
    ASSERT_TRUE(sys.fs().truncate(fd, Bytes{0}));
    EXPECT_EQ(sys.fs().fileSize("t"), 0u);
    EXPECT_EQ(sys.fs().cachedPages(), 0u);
    // The file is reusable afterwards.
    EXPECT_EQ(sys.fs().write(fd, Bytes{0}, kPageSize), kPageSize);
    sys.fs().close(fd);
}

TEST(Truncate, GrowIsSparse)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("t");
    sys.fs().write(fd, Bytes{0}, kPageSize);
    ASSERT_TRUE(sys.fs().truncate(fd, 100 * kPageSize));
    EXPECT_EQ(sys.fs().fileSize("t"), 100 * kPageSize);
    EXPECT_EQ(sys.fs().cachedPages(), 1u) << "grow must not allocate";
    sys.fs().close(fd);
}

TEST(Truncate, BadFdFails)
{
    auto platform = makePlatform();
    EXPECT_FALSE(platform->sys().fs().truncate(999, Bytes{0}));
}

TEST(Poll, ReportsReadinessAndKeepsKlocHot)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int sd = sys.net().socket();
    EXPECT_FALSE(sys.net().poll(sd));
    sys.net().deliver(sd, Bytes{1000});
    EXPECT_TRUE(sys.net().poll(sd));
    Knode *knode = sys.net().knodeOf(sd);
    ASSERT_NE(knode, nullptr);
    EXPECT_TRUE(knode->inuse);
    EXPECT_EQ(knode->age, 0u);
    sys.net().recv(sd, Bytes{~0ULL});
    EXPECT_FALSE(sys.net().poll(sd));
    EXPECT_FALSE(sys.net().poll(12345)) << "unknown sd must be falsy";
    sys.net().closeSocket(sd);
}

TEST(Snapshot, ExportsAllSubsystems)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().startDaemons();
    const int fd = sys.fs().create("s");
    sys.fs().write(fd, Bytes{0}, 32 * kPageSize);
    sys.fs().close(fd);
    const int sd = sys.net().socket();
    sys.net().deliver(sd, Bytes{5000});
    sys.net().recv(sd, Bytes{~0ULL});

    const StatSet stats = sys.snapshot();
    EXPECT_GT(stats.get("time_ms"), 0.0);
    EXPECT_GT(stats.get("kernel_refs"), 0.0);
    EXPECT_GT(stats.get("fs.writes"), 0.0);
    EXPECT_GT(stats.get("fs.cached_pages"), 0.0);
    EXPECT_GT(stats.get("net.packets_delivered"), 0.0);
    EXPECT_EQ(stats.get("kloc.enabled"), 1.0);
    EXPECT_GT(stats.get("kloc.knodes_created"), 0.0);
    EXPECT_TRUE(stats.has("tier.fast-dram.utilization"));
    EXPECT_TRUE(stats.has("tier.slow-dram.resident.page_cache"));
    // Renders without crashing and contains a known key.
    EXPECT_NE(stats.toString().find("fs.writes"), std::string::npos);
    sys.net().closeSocket(sd);
    sys.fs().unlink("s");
}

} // namespace
} // namespace kloc
