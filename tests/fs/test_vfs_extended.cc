/**
 * @file
 * Extended VFS and feature tests: readdir/dir buffers, huge-page
 * app allocations, sys_kloc_memsize allocation diversion, dentry
 * cache eviction, and teardown edge cases.
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
    return std::make_unique<TwoTierPlatform>(config, "klocs");
}

TEST(VfsExtended, ReaddirListsEverythingAndAllocatesDirBuffers)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    for (int i = 0; i < 150; ++i)
        sys.fs().close(sys.fs().create("file_" + std::to_string(i)));

    const auto names = sys.fs().readdir();
    EXPECT_EQ(names.size(), 150u);
    // 150 entries over 64-entry buffers -> at least 3 DirBuffers,
    // all freed again by the time readdir returns.
    const auto &hist = sys.heap().objLifetimeHist(KobjKind::DirBuffer);
    EXPECT_GE(hist.dist().count(), 3u);
    for (int i = 0; i < 150; ++i)
        sys.fs().unlink("file_" + std::to_string(i));
}

TEST(VfsExtended, ReaddirOnEmptyFs)
{
    auto platform = makePlatform();
    EXPECT_TRUE(platform->sys().fs().readdir().empty());
}

TEST(VfsExtended, HugePageAllocationsAreContiguous)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    Frame *huge = sys.heap().allocAppPages(9);
    ASSERT_NE(huge, nullptr);
    EXPECT_EQ(huge->pages(), 512u);
    EXPECT_EQ(huge->bytes(), 2 * kMiB);
    EXPECT_EQ(sys.heap().liveAppPages(), 512u);
    // Aligned like a real THP.
    EXPECT_EQ(huge->pfn % 512, 0u);
    sys.heap().freeAppPage(huge);
    EXPECT_EQ(sys.heap().liveAppPages(), 0u);
}

TEST(VfsExtended, HugePageArenaWorkloadRuns)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 1500;
    config.hugePages = true;
    EXPECT_GT(runMeasured(sys, "redis", config).result.throughput(), 0.0);
    EXPECT_EQ(sys.heap().liveAppPages(), 0u);
}

TEST(VfsExtended, MemsizeCapDivertsKernelAllocations)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    // Cap KLOC kernel residency on the fast tier to ~16 pages.
    sys.kloc().setMemLimit(platform->fastTier(), 16 * kPageSize);

    const int fd = sys.fs().create("f");
    sys.fs().write(fd, Bytes{0}, 256 * kPageSize);
    sys.fs().close(fd);

    const Tier &fast = sys.tiers().tier(platform->fastTier());
    Bytes kernel_bytes{};
    for (unsigned c = 0; c < kNumObjClasses; ++c) {
        const auto cls = static_cast<ObjClass>(c);
        if (isKernelClass(cls))
            kernel_bytes += fast.residentPages(cls) * kPageSize;
    }
    // Some slack for the pre-cap allocations and pinned KlocMeta.
    EXPECT_LT(kernel_bytes, 64 * kPageSize)
        << "sys_kloc_memsize failed to divert kernel allocations";
    sys.fs().unlink("f");
}

TEST(VfsExtended, DentryCacheEvictsClosedFilesOnly)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    config.system.fs.dentryCacheCap = 8;
    TwoTierPlatform platform(config);
    platform.applyPolicyByName("klocs");
    System &sys = platform.sys();
    std::vector<int> fds;
    for (int i = 0; i < 20; ++i) {
        const int fd =
            sys.fs().create(std::string("d").append(std::to_string(i)));
        if (i < 10)
            sys.fs().close(fd);
        else
            fds.push_back(fd);
    }
    // Open files survive; re-open of an evicted name still works
    // (dcache miss path re-reads the directory entry).
    const int fd = sys.fs().open("d0");
    EXPECT_GE(fd, 0);
    sys.fs().close(fd);
    for (const int open_fd : fds)
        sys.fs().close(open_fd);
}

TEST(VfsExtended, DestroyWithDirtyPagesViaTeardown)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("dirty_file");
    sys.fs().write(fd, Bytes{0}, 64 * kPageSize);
    sys.fs().close(fd);
    // Unlink with dirty pages pending: pages are deallocated, not
    // written back (the file is gone).
    EXPECT_TRUE(sys.fs().unlink("dirty_file"));
    EXPECT_EQ(sys.fs().cachedPages(), 0u);
}

TEST(VfsExtended, ZeroLengthIo)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("f");
    EXPECT_EQ(sys.fs().write(fd, Bytes{0}, Bytes{0}), 0u);
    EXPECT_EQ(sys.fs().read(fd, Bytes{0}, Bytes{0}), 0u);
    EXPECT_EQ(sys.fs().fileSize("f"), 0u);
    sys.fs().close(fd);
}

TEST(VfsExtended, SparseWriteThenReadHole)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const int fd = sys.fs().create("sparse");
    // Write one page far into the file.
    sys.fs().write(fd, 100 * kPageSize, kPageSize);
    EXPECT_EQ(sys.fs().fileSize("sparse"), 101 * kPageSize);
    // Reading the hole materialises pages through the miss path.
    const Bytes got = sys.fs().read(fd, Bytes{0}, 4 * kPageSize);
    EXPECT_EQ(got, 4 * kPageSize);
    sys.fs().close(fd);
}

TEST(VfsExtended, ManySmallFilesChurn)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().startDaemons();
    // create/write/close/unlink churn like a mail-server workload.
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 30; ++i) {
            const std::string name =
                "mail_" + std::to_string(round) + "_" +
                std::to_string(i);
            const int fd = sys.fs().create(name);
            ASSERT_GE(fd, 0);
            sys.fs().write(fd, Bytes{0}, 2 * kPageSize);
            sys.fs().close(fd);
        }
        sys.machine().charge(5 * kMillisecond);
        for (int i = 0; i < 30; ++i) {
            const std::string name =
                "mail_" + std::to_string(round) + "_" +
                std::to_string(i);
            EXPECT_TRUE(sys.fs().unlink(name));
        }
    }
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
    EXPECT_EQ(sys.kloc().knodeCount(), 0u);
    EXPECT_EQ(sys.fs().cachedPages(), 0u);
}

} // namespace
} // namespace kloc
