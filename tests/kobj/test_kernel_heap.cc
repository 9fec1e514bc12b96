/**
 * @file
 * Kernel-object taxonomy and KernelHeap tests: Table 1 kinds, slab
 * vs page backing, relocatability rules, placement-policy use and app
 * pages.
 */

#include <gtest/gtest.h>

#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"

namespace kloc {
namespace {

TEST(KobjKinds, TaxonomyIsComplete)
{
    for (unsigned i = 0; i < kNumKobjKinds; ++i) {
        const auto kind = static_cast<KobjKind>(i);
        EXPECT_GT(kobjSize(kind), 0u);
        EXPECT_STRNE(kobjKindName(kind), "unknown");
        EXPECT_LT(static_cast<unsigned>(kobjClass(kind)),
                  kNumObjClasses);
    }
}

TEST(KobjKinds, PageBackedKindsArePageSized)
{
    for (unsigned i = 0; i < kNumKobjKinds; ++i) {
        const auto kind = static_cast<KobjKind>(i);
        if (!kobjIsSlab(kind))
            EXPECT_EQ(kobjSize(kind), kPageSize);
        else
            EXPECT_LE(kobjSize(kind), kPageSize);
    }
}

TEST(KobjKinds, ClassMappingMatchesTable1)
{
    EXPECT_EQ(kobjClass(KobjKind::Inode), ObjClass::FsSlab);
    EXPECT_EQ(kobjClass(KobjKind::Dentry), ObjClass::FsSlab);
    EXPECT_EQ(kobjClass(KobjKind::JournalRecord), ObjClass::Journal);
    EXPECT_EQ(kobjClass(KobjKind::JournalPage), ObjClass::Journal);
    EXPECT_EQ(kobjClass(KobjKind::Bio), ObjClass::BlockIo);
    EXPECT_EQ(kobjClass(KobjKind::BlkMqCtx), ObjClass::BlockIo);
    EXPECT_EQ(kobjClass(KobjKind::Sock), ObjClass::SockBuf);
    EXPECT_EQ(kobjClass(KobjKind::SkbuffHead), ObjClass::SockBuf);
    EXPECT_EQ(kobjClass(KobjKind::SkbuffData), ObjClass::SockBuf);
    EXPECT_EQ(kobjClass(KobjKind::RxBuf), ObjClass::SockBuf);
    EXPECT_EQ(kobjClass(KobjKind::PageCachePage), ObjClass::PageCache);
}

class KernelHeapTest : public ::testing::Test
{
  protected:
    KernelHeapTest()
        : machine(4, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), heap(mem, tiers)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 64 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fastId = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 256 * kPageSize;
        slowId = tiers.addTier(spec);
        placement = std::make_unique<StaticPlacement>(
            TierPreference{fastId, slowId},
            TierPreference{fastId, slowId});
        heap.setPolicy(placement.get());
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    KernelHeap heap;
    std::unique_ptr<StaticPlacement> placement;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(KernelHeapTest, SlabKindGetsSlabBacking)
{
    KernelObject inode(KobjKind::Inode);
    ASSERT_TRUE(heap.allocBacking(inode, true, 0));
    EXPECT_TRUE(inode.slab.valid());
    EXPECT_EQ(inode.page(), nullptr);
    EXPECT_NE(inode.frame(), nullptr);
    EXPECT_EQ(inode.frame()->objClass, ObjClass::FsSlab);
    heap.freeBacking(inode);
    EXPECT_FALSE(inode.backed());
}

TEST_F(KernelHeapTest, PageKindGetsWholeFrame)
{
    KernelObject page(KobjKind::PageCachePage);
    ASSERT_TRUE(heap.allocBacking(page, true, 0));
    EXPECT_FALSE(page.slab.valid());
    ASSERT_NE(page.page(), nullptr);
    EXPECT_EQ(page.page()->pages(), 1u);
    EXPECT_EQ(page.page()->objClass, ObjClass::PageCache);
    heap.freeBacking(page);
}

TEST_F(KernelHeapTest, RelocatabilityRules)
{
    // Page cache and journal pages are always relocatable.
    KernelObject cache_page(KobjKind::PageCachePage);
    heap.allocBacking(cache_page, true, 0);
    EXPECT_TRUE(cache_page.page()->relocatable);

    // Driver rx buffers are physically referenced: not relocatable
    // on a stock kernel...
    KernelObject rx(KobjKind::RxBuf);
    heap.allocBacking(rx, true, 0);
    EXPECT_FALSE(rx.page()->relocatable);

    // ...until the KLOC allocation interface is enabled.
    heap.setKlocInterface(true);
    KernelObject rx2(KobjKind::RxBuf);
    heap.allocBacking(rx2, true, 0);
    EXPECT_TRUE(rx2.page()->relocatable);

    // Slab objects follow the same rule.
    KernelObject inode(KobjKind::Inode);
    heap.allocBacking(inode, true, 7);
    EXPECT_TRUE(inode.frame()->relocatable);

    heap.freeBacking(cache_page);
    heap.freeBacking(rx);
    heap.freeBacking(rx2);
    heap.freeBacking(inode);
}

TEST_F(KernelHeapTest, AppPageAccounting)
{
    Frame *a = heap.allocAppPage();
    Frame *b = heap.allocAppPage();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->objClass, ObjClass::App);
    EXPECT_EQ(heap.liveAppPages(), 2u);
    EXPECT_EQ(heap.cumulativeAppPages(), 2u);
    heap.freeAppPage(a);
    EXPECT_EQ(heap.liveAppPages(), 1u);
    EXPECT_EQ(heap.cumulativeAppPages(), 2u);
    heap.freeAppPage(b);
}

TEST_F(KernelHeapTest, InodeIdsAreUnique)
{
    const uint64_t a = heap.allocInodeId();
    const uint64_t b = heap.allocInodeId();
    EXPECT_NE(a, b);
    EXPECT_GT(b, a);
}

TEST_F(KernelHeapTest, TouchObjectChargesAndMarksDirty)
{
    KernelObject page(KobjKind::PageCachePage);
    heap.allocBacking(page, true, 0);
    const Tick before = machine.now();
    heap.touchObject(page, AccessType::Write);
    EXPECT_GT(machine.now(), before);
    EXPECT_TRUE(page.frame()->dirty);
    EXPECT_EQ(machine.kernelRefs(), 1u);
    heap.freeBacking(page);
}

} // namespace
} // namespace kloc
