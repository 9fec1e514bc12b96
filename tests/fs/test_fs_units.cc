/**
 * @file
 * Filesystem sub-component tests: the block device timing model,
 * the bio/blk-mq path, the journal lifecycle, and the per-inode
 * page cache (including radix-node kernel-object accounting).
 */

#include <gtest/gtest.h>

#include "fs/block_layer.hh"
#include "fs/device.hh"
#include "fs/journal.hh"
#include "fs/page_cache.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"

namespace kloc {
namespace {

class FsUnitTest : public ::testing::Test
{
  protected:
    FsUnitTest()
        : machine(4, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator),
          device(machine, BlockDevice::Config{})
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 512 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fastId = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 512 * kPageSize;
        slowId = tiers.addTier(spec);
        placement = std::make_unique<StaticPlacement>(
            TierPreference{fastId, slowId},
            TierPreference{fastId, slowId});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fastId, slowId});
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    BlockDevice device;
    std::unique_ptr<StaticPlacement> placement;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(FsUnitTest, DeviceSequentialFasterThanRandom)
{
    BlockDevice::Config config;
    BlockDevice dev(machine, config);
    // Sequential stream.
    Tick seq_cost{};
    uint64_t sector = 0;
    for (int i = 0; i < 16; ++i) {
        seq_cost += dev.transferCost(sector, 64 * kKiB);
        sector += 64 * kKiB / BlockDevice::kSectorSize;
    }
    // Random stream of the same volume.
    Tick rand_cost{};
    for (int i = 0; i < 16; ++i)
        rand_cost += dev.transferCost((i * 977 + 13) * 1000000ULL,
                                      64 * kKiB);
    EXPECT_GT(rand_cost, seq_cost);
    EXPECT_EQ(dev.requests(), 32u);
    EXPECT_EQ(dev.bytesTransferred(), 32ULL * 64 * kKiB);
}

TEST_F(FsUnitTest, BioLifecycleAndKnodeTracking)
{
    BlockLayer block(heap, &kloc, device);
    Knode *knode = kloc.mapKnode(1);
    const Tick before = machine.now();
    block.submit(knode, true, 0, kPageSize, true, false);
    EXPECT_GT(machine.now(), before);
    EXPECT_EQ(block.biosSubmitted(), 1u);
    // The bio was freed on completion: nothing left in the knode
    // besides nothing (bio removed), and lifetimes were recorded.
    EXPECT_EQ(knode->objectCount(), 0u);
    EXPECT_EQ(heap.objLifetimeHist(KobjKind::Bio).dist().count(), 1u);
    kloc.unmapKnode(knode);
}

TEST_F(FsUnitTest, ForegroundCostsMoreThanBackground)
{
    BlockLayer block(heap, &kloc, device);
    const Tick t0 = machine.now();
    block.submit(nullptr, true, 1000000, 64 * kKiB, false, true);
    const Tick foreground = machine.now() - t0;
    const Tick t1 = machine.now();
    block.submit(nullptr, true, 9000000, 64 * kKiB, false, false);
    const Tick background = machine.now() - t1;
    EXPECT_GT(foreground, background);
}

TEST_F(FsUnitTest, JournalLifecycle)
{
    BlockLayer block(heap, &kloc, device);
    Journal journal(heap, &kloc, block);
    Knode *knode = kloc.mapKnode(1);

    journal.logMetadata(knode, true, 1, Bytes{256});
    EXPECT_EQ(journal.liveRecords(), 1u);
    EXPECT_GT(knode->rbSlab.size(), 0u);

    // A page worth of metadata pins a journal buffer page.
    journal.logMetadata(knode, true, 1, kPageSize);
    EXPECT_GT(knode->rbCache.size(), 0u);

    journal.commit(false);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(knode->objectCount(), 0u);
    EXPECT_EQ(journal.committedTxs(), 1u);
    // Journal object lifetimes were recorded (Fig. 2d's short tail).
    EXPECT_GT(
        heap.objLifetimeHist(KobjKind::JournalRecord).dist().count(), 0u);
    kloc.unmapKnode(knode);
}

TEST_F(FsUnitTest, JournalDetachInodeAllowsUnmap)
{
    BlockLayer block(heap, &kloc, device);
    Journal journal(heap, &kloc, block);
    Knode *knode = kloc.mapKnode(1);
    journal.logMetadata(knode, true, 1, Bytes{256});
    ASSERT_GT(knode->objectCount(), 0u);
    journal.detachInode(1);
    EXPECT_EQ(knode->objectCount(), 0u);
    kloc.unmapKnode(knode);  // must not assert
    journal.commit(false);   // records freed without a knode
}

TEST_F(FsUnitTest, JournalDetachTouchesOnlyItsInode)
{
    BlockLayer block(heap, &kloc, device);
    Journal journal(heap, &kloc, block);
    Knode *a = kloc.mapKnode(1);
    Knode *b = kloc.mapKnode(2);
    // Interleave the two inodes' records and pages in one transaction.
    for (int i = 0; i < 3; ++i) {
        journal.logMetadata(a, true, 1, kPageSize);
        journal.logMetadata(b, true, 2, kPageSize / 2);
    }
    const uint64_t b_objects = b->objectCount();
    ASSERT_GT(a->objectCount(), 0u);
    ASSERT_GT(b_objects, 0u);

    journal.detachInode(1);
    EXPECT_EQ(a->objectCount(), 0u);
    EXPECT_EQ(b->objectCount(), b_objects);
    EXPECT_EQ(journal.liveRecords(), 6u);  // detach frees nothing

    // Detaching the same inode again is a no-op.
    journal.detachInode(1);
    EXPECT_EQ(b->objectCount(), b_objects);
    kloc.unmapKnode(a);

    // After commit, detach has nothing left to untrack.
    journal.commit(false);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(b->objectCount(), 0u);
    journal.logMetadata(b, true, 2, Bytes{256});
    journal.commit(false);
    journal.detachInode(2);
    EXPECT_EQ(b->objectCount(), 0u);
    kloc.unmapKnode(b);
}

TEST_F(FsUnitTest, JournalDetachDuringCrashedTransaction)
{
    BlockLayer block(heap, &kloc, device);
    Journal journal(heap, &kloc, block);
    Knode *a = kloc.mapKnode(1);
    Knode *b = kloc.mapKnode(2);
    journal.logMetadata(a, true, 1, kPageSize);
    journal.logMetadata(b, true, 2, kPageSize);

    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse("journal_commit_crash oneshot 1\n", spec,
                                 &err))
        << err;
    machine.faults().configure(spec);
    journal.commit(true);
    ASSERT_TRUE(journal.crashed());

    // Unlink-style detach while the transaction is frozen.
    journal.detachInode(1);
    EXPECT_EQ(a->objectCount(), 0u);
    EXPECT_GT(b->objectCount(), 0u);
    kloc.unmapKnode(a);

    // The recovery commit frees everything, detached or not.
    journal.commit(true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(b->objectCount(), 0u);
    kloc.unmapKnode(b);
}

TEST_F(FsUnitTest, JournalCommitTimer)
{
    BlockLayer block(heap, &kloc, device);
    Journal journal(heap, &kloc, block);
    journal.startCommitTimer(10 * kMillisecond);
    journal.logMetadata(nullptr, true, 5, Bytes{256});
    EXPECT_EQ(journal.committedTxs(), 0u);
    machine.charge(11 * kMillisecond);
    EXPECT_EQ(journal.committedTxs(), 1u);
    journal.stopCommitTimer();
}

TEST_F(FsUnitTest, PageCacheInsertFindRemove)
{
    PageCache cache(heap, &kloc, 1, /*data_backed=*/false);
    Knode *knode = kloc.mapKnode(1);
    cache.setKnode(knode);

    EXPECT_EQ(cache.find(0), nullptr);
    PageCachePage *page = cache.insertNew(0, true);
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(cache.find(0), page);
    EXPECT_EQ(cache.pageCount(), 1u);
    EXPECT_EQ(page->knode, knode);
    EXPECT_GT(knode->rbCache.size(), 0u);

    cache.removeAndFree(page);
    EXPECT_EQ(cache.find(0), nullptr);
    EXPECT_EQ(cache.pageCount(), 0u);
    kloc.unmapKnode(knode);
}

TEST_F(FsUnitTest, PageCacheDirtyTracking)
{
    PageCache cache(heap, &kloc, 1, false);
    PageCachePage *a = cache.insertNew(3, true);
    PageCachePage *b = cache.insertNew(7, true);
    cache.markDirty(a);
    cache.markDirty(a);  // idempotent
    EXPECT_EQ(cache.dirtyCount(), 1u);
    std::vector<PageCachePage *> dirty;
    cache.collectDirty(0, FrameCount{10}, dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], a);
    cache.clearDirty(a);
    EXPECT_EQ(cache.dirtyCount(), 0u);
    cache.collectDirty(0, FrameCount{10}, dirty);
    EXPECT_TRUE(dirty.empty());
    cache.removeAndFree(a);
    cache.removeAndFree(b);
}

TEST_F(FsUnitTest, PageCacheCollectDirtyReusesBuffer)
{
    PageCache cache(heap, &kloc, 1, false);
    std::vector<PageCachePage *> pages;
    for (uint64_t i = 0; i < 32; ++i) {
        PageCachePage *page = cache.insertNew(i * 5, true);
        ASSERT_NE(page, nullptr);
        cache.markDirty(page);
        pages.push_back(page);
    }

    // The walk returns every dirty page in index order...
    std::vector<PageCachePage *> out;
    cache.collectDirty(0, FrameCount{64}, out);
    EXPECT_EQ(out, pages);
    ASSERT_EQ(out.size(), 32u);

    // ...clears stale contents, honours start/max...
    cache.collectDirty(10 * 5, FrameCount{4}, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], pages[10]);

    // ...and once warm never reallocates the caller's buffer.
    cache.collectDirty(0, FrameCount{64}, out);
    const auto *warm_data = out.data();
    for (int pass = 0; pass < 8; ++pass) {
        cache.collectDirty(0, FrameCount{64}, out);
        EXPECT_EQ(out.data(), warm_data);
    }

    for (PageCachePage *page : pages)
        cache.removeAndFree(page);
}

TEST_F(FsUnitTest, RadixNodesAreKernelObjects)
{
    PageCache cache(heap, &kloc, 1, false);
    Knode *knode = kloc.mapKnode(1);
    cache.setKnode(knode);
    const uint64_t before =
        tiers.tier(fastId).residentPages(ObjClass::FsSlab) +
        tiers.tier(slowId).residentPages(ObjClass::FsSlab);
    std::vector<PageCachePage *> pages;
    for (uint64_t i = 0; i < 200; ++i)
        pages.push_back(cache.insertNew(i * 100, true));
    const uint64_t after =
        tiers.tier(fastId).residentPages(ObjClass::FsSlab) +
        tiers.tier(slowId).residentPages(ObjClass::FsSlab);
    EXPECT_GT(after, before) << "radix nodes did not allocate slab pages";
    for (PageCachePage *page : pages)
        cache.removeAndFree(page);
    kloc.unmapKnode(knode);
}

TEST_F(FsUnitTest, DataBackedPagesCarryContents)
{
    PageCache cache(heap, &kloc, 1, /*data_backed=*/true);
    PageCachePage *page = cache.insertNew(0, true);
    ASSERT_NE(page, nullptr);
    ASSERT_NE(page->data, nullptr);
    page->data[100] = 42;
    EXPECT_EQ(cache.find(0)->data[100], 42);
    cache.removeAndFree(page);
}

TEST_F(FsUnitTest, PageCacheDestructorDrains)
{
    const uint64_t baseline = tiers.liveFrames();
    {
        PageCache cache(heap, &kloc, 1, false);
        for (uint64_t i = 0; i < 50; ++i)
            cache.insertNew(i, true);
    }
    // All page frames and radix-node slab pages released (modulo
    // slab empty-pool retention inside the kind caches).
    EXPECT_LE(tiers.liveFrames(),
              baseline + KmemCache::kEmptyRetention);
}

} // namespace
} // namespace kloc
