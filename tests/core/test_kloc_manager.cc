/**
 * @file
 * KLOC core tests: the Table 2 API surface, knode/kmap lifecycle,
 * per-CPU fast paths, object tracking in the split rbtrees, the
 * migration daemon's demote/promote/watermark behaviour, the class
 * mask (Fig. 5c), and metadata accounting (Table 6).
 */

#include <gtest/gtest.h>

#include "core/kloc_manager.hh"
#include "fs/objects.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"

namespace kloc {
namespace {

class KlocTest : public ::testing::Test
{
  protected:
    KlocTest()
        : machine(4, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fastId = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 1024 * kPageSize;
        slowId = tiers.addTier(spec);

        placement = std::make_unique<StaticPlacement>(
            TierPreference{fastId, slowId},
            TierPreference{fastId, slowId});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fastId, slowId});
    }

    /**
     * Push the fast tier above the low watermark so demote passes
     * actually migrate (they are pressure-gated, §4.1).
     */
    void
    applyPressure()
    {
        Tier &fast = tiers.tier(fastId);
        while (fast.utilization() < KlocManager::kLowWatermark) {
            Frame *frame =
                tiers.alloc(0, ObjClass::App, true, {fastId});
            ASSERT_NE(frame, nullptr);
            _pressure.push_back(frame);
        }
    }

    /** Make a tracked page-cache page under @p knode. */
    PageCachePage *
    makePage(Knode *knode)
    {
        auto *page = new PageCachePage();
        EXPECT_TRUE(heap.allocBacking(*page, knode->inuse, knode->id));
        kloc.addObject(knode, page);
        return page;
    }

    void
    destroyPage(PageCachePage *page)
    {
        if (page->knode)
            kloc.removeObject(page);
        heap.freeBacking(*page);
        delete page;
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<StaticPlacement> placement;
    std::vector<Frame *> _pressure;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(KlocTest, DisabledManagerReturnsNull)
{
    kloc.setEnabled(false);
    EXPECT_EQ(kloc.mapKnode(1), nullptr);
    EXPECT_EQ(kloc.findKnode(1), nullptr);
}

TEST_F(KlocTest, MapAndFindKnode)
{
    Knode *knode = kloc.mapKnode(42);
    ASSERT_NE(knode, nullptr);
    EXPECT_EQ(knode->id, 42u);
    EXPECT_TRUE(knode->inuse);
    EXPECT_TRUE(knode->backing.valid());
    EXPECT_EQ(knode->backing.frame->objClass, ObjClass::KlocMeta);
    EXPECT_EQ(kloc.findKnode(42), knode);
    EXPECT_EQ(kloc.findKnode(43), nullptr);
    EXPECT_EQ(kloc.knodeCount(), 1u);
    kloc.unmapKnode(knode);
    EXPECT_EQ(kloc.knodeCount(), 0u);
}

TEST_F(KlocTest, PerCpuFastPathHitsAndMisses)
{
    Knode *knode = kloc.mapKnode(7);
    machine.setCurrentCpu(0);
    kloc.markActive(knode);  // cached on cpu 0
    kloc.resetStats();
    EXPECT_EQ(kloc.findKnode(7), knode);
    EXPECT_EQ(kloc.stats().perCpuHits, 1u);
    // Another CPU misses its own list and falls back to the kmap.
    machine.setCurrentCpu(1);
    EXPECT_EQ(kloc.findKnode(7), knode);
    EXPECT_EQ(kloc.stats().perCpuMisses, 1u);
    // ...but is cached there now.
    EXPECT_EQ(kloc.findKnode(7), knode);
    EXPECT_EQ(kloc.stats().perCpuHits, 2u);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, ObjectsSplitAcrossCacheAndSlabTrees)
{
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    auto *dentry = new Dentry();
    ASSERT_TRUE(heap.allocBacking(*dentry, true, knode->id));
    kloc.addObject(knode, dentry);

    EXPECT_EQ(knode->rbCache.size(), 1u);  // page-backed
    EXPECT_EQ(knode->rbSlab.size(), 1u);   // slab-backed
    EXPECT_EQ(knode->objectCount(), 2u);
    EXPECT_EQ(page->knode, knode);
    EXPECT_EQ(page->frame()->owner, page);
    EXPECT_EQ(dentry->frame()->owner, dentry);

    int cache_count = 0, slab_count = 0;
    kloc.forEachCacheObj(knode, [&](KernelObject *) { ++cache_count; });
    kloc.forEachSlabObj(knode, [&](KernelObject *) { ++slab_count; });
    EXPECT_EQ(cache_count, 1);
    EXPECT_EQ(slab_count, 1);

    kloc.removeObject(dentry);
    heap.freeBacking(*dentry);
    delete dentry;
    destroyPage(page);
    EXPECT_EQ(knode->objectCount(), 0u);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, MigrateKnodeObjectsMovesWholeKloc)
{
    Knode *knode = kloc.mapKnode(1);
    std::vector<PageCachePage *> pages;
    for (int i = 0; i < 8; ++i)
        pages.push_back(makePage(knode));
    for (PageCachePage *page : pages)
        EXPECT_EQ(page->frame()->tier, fastId);

    const uint64_t moved = kloc.migrateKnodeObjects(knode, slowId);
    EXPECT_GE(moved, 8u);
    for (PageCachePage *page : pages)
        EXPECT_EQ(page->frame()->tier, slowId);

    for (PageCachePage *page : pages)
        destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, DemotePassHonoursGraceAndReactivation)
{
    applyPressure();
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    kloc.markInactive(knode);

    // Within the grace window nothing moves.
    kloc.runDemotePass();
    EXPECT_EQ(page->frame()->tier, fastId);

    // Re-activation cancels the queued demotion entirely.
    kloc.markActive(knode);
    machine.charge(KlocManager::kDemoteGrace + kMillisecond);
    kloc.runDemotePass();
    EXPECT_EQ(page->frame()->tier, fastId);

    // A real close followed by the grace window demotes.
    kloc.markInactive(knode);
    machine.charge(KlocManager::kDemoteGrace + kMillisecond);
    kloc.runDemotePass();
    EXPECT_EQ(page->frame()->tier, slowId);
    EXPECT_GT(kloc.stats().demotedPages, 0u);

    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, TouchPromotionRequiresReuse)
{
    applyPressure();
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    // Demote it first.
    kloc.markInactive(knode);
    machine.charge(KlocManager::kDemoteGrace + kMillisecond);
    kloc.runDemotePass();
    ASSERT_EQ(page->frame()->tier, slowId);
    kloc.markActive(knode);

    // First touch: referenced bit set but no promotion.
    mem.touch(page->frame(), kPageSize, AccessType::Read);
    kloc.maybePromoteOnTouch(page->frame(), knode);
    EXPECT_EQ(page->frame()->tier, slowId);
    // Second touch: promoted.
    mem.touch(page->frame(), kPageSize, AccessType::Read);
    kloc.maybePromoteOnTouch(page->frame(), knode);
    EXPECT_EQ(page->frame()->tier, fastId);
    EXPECT_GT(kloc.stats().promotedPages, 0u);

    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, ClassMaskExcludesObjects)
{
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    // Manage everything except page-cache pages.
    kloc.setManagedClasses(
        ~(1u << static_cast<unsigned>(ObjClass::PageCache)));
    EXPECT_FALSE(kloc.classManaged(ObjClass::PageCache));
    EXPECT_TRUE(kloc.classManaged(ObjClass::Journal));
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 0u);
    EXPECT_EQ(page->frame()->tier, fastId);
    kloc.setManagedClasses(~0u);
    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, LruKnodesOrdersColdestFirst)
{
    Knode *active = kloc.mapKnode(1);
    Knode *idle = kloc.mapKnode(2);
    Knode *aged = kloc.mapKnode(3);
    kloc.markActive(active);
    kloc.markInactive(idle);
    aged->age = 5;

    auto order = kloc.lruKnodes(10);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], idle) << "inactive knode must sort coldest";
    EXPECT_EQ(order[1], aged);
    EXPECT_EQ(order[2], active);

    kloc.unmapKnode(active);
    kloc.unmapKnode(idle);
    kloc.unmapKnode(aged);
}

TEST_F(KlocTest, FindCpuReportsLastToucher)
{
    Knode *knode = kloc.mapKnode(1);
    machine.setCurrentCpu(3);
    kloc.markActive(knode);
    EXPECT_EQ(kloc.findCpu(knode), 3);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, MetadataBytesTracksStructures)
{
    EXPECT_EQ(kloc.metadataBytes(), 0u);
    Knode *knode = kloc.mapKnode(1);
    const Bytes with_knode = kloc.metadataBytes();
    EXPECT_GE(with_knode, KlocManager::kKnodeSize);
    PageCachePage *page = makePage(knode);
    EXPECT_GE(kloc.metadataBytes(), with_knode + 8);
    EXPECT_GE(kloc.peakMetadataBytes(), kloc.metadataBytes());
    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, DaemonRunsOnSchedule)
{
    applyPressure();
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    kloc.markInactive(knode);
    kloc.startDaemon(kMillisecond);
    machine.charge(KlocManager::kDemoteGrace + 5 * kMillisecond);
    EXPECT_EQ(page->frame()->tier, slowId)
        << "daemon failed to demote the inactive KLOC";
    kloc.stopDaemon();
    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, MemLimitCapsFastTierUse)
{
    applyPressure();
    Knode *knode = kloc.mapKnode(1);
    PageCachePage *page = makePage(knode);
    kloc.markInactive(knode);
    machine.charge(KlocManager::kDemoteGrace + kMillisecond);
    kloc.runDemotePass();
    ASSERT_EQ(page->frame()->tier, slowId);

    // Headroom below the promotion ceiling, but the sys_kloc_memsize
    // cap is already met: only the cap can hold the page back.
    kloc.setMemLimit(fastId, kPageSize);  // absurdly small cap
    ASSERT_LT(tiers.tier(fastId).utilization(),
              KlocManager::kPromoteCeiling);
    ASSERT_TRUE(kloc.overMemLimit(fastId));
    kloc.markActive(knode);
    mem.touch(page->frame(), kPageSize, AccessType::Read);
    mem.touch(page->frame(), kPageSize, AccessType::Read);
    kloc.maybePromoteOnTouch(page->frame(), knode);
    EXPECT_EQ(page->frame()->tier, slowId) << "promoted past the cap";

    // Lifting the cap lets the same touch promote.
    kloc.setMemLimit(fastId, Bytes{});
    kloc.maybePromoteOnTouch(page->frame(), knode);
    EXPECT_EQ(page->frame()->tier, fastId);

    destroyPage(page);
    kloc.unmapKnode(knode);
}

TEST_F(KlocTest, UnmapReleasesKnodeBacking)
{
    const uint64_t before = tiers.liveFrames();
    Knode *knode = kloc.mapKnode(9);
    kloc.unmapKnode(knode);
    EXPECT_EQ(tiers.liveFrames(), before + 1)
        << "knode slab page should be retained by the empty pool only";
    EXPECT_EQ(kloc.stats().knodesDeleted, 1u);
}

TEST_F(KlocTest, TrackedObjectNeverGetsNewBacking)
{
    // The residency lists rely on it: a tracked object's frame
    // changes only by migration. Its backing cannot be freed while
    // it is tracked, so it cannot be replaced either.
    Knode *knode = kloc.mapKnode(1);
    Dentry dentry;
    ASSERT_TRUE(heap.allocBacking(dentry, true, knode->id));
    kloc.addObject(knode, &dentry);
    EXPECT_DEATH(heap.freeBacking(dentry),
                 "freeing the backing of a tracked");
    kloc.removeObject(&dentry);
    heap.freeBacking(dentry);
    kloc.unmapKnode(knode);
}

/** Count events of @p type in the tracer's ring. */
uint64_t
countEvents(const Tracer &tracer, TraceEventType type)
{
    uint64_t n = 0;
    for (const TraceEvent &event : tracer.events()) {
        if (event.type == type)
            ++n;
    }
    return n;
}

TEST_F(KlocTest, OneSoftOfflinePerKnodeAtATime)
{
    machine.tracer().setEnabled(true);
    Knode *knode = kloc.mapKnode(1);
    std::vector<PageCachePage *> pages;
    for (int i = 0; i < 4; ++i)
        pages.push_back(makePage(knode));

    // Three poisonings at one tick: each marks the KLOC damaged, but
    // only the first schedules a soft-offline.
    for (int i = 0; i < 3; ++i)
        migrator.poisonFrame(pages[i]->frame(), PoisonOrigin::Access);
    EXPECT_EQ(countEvents(machine.tracer(), TraceEventType::KlocDamaged), 3u);
    machine.charge(Tick{1});
    EXPECT_EQ(countEvents(machine.tracer(), TraceEventType::SoftOffline), 1u);
    EXPECT_EQ(pages[3]->frame()->tier, slowId)
        << "the healthy sibling shelters on the other tier";

    // Once it has run, a new poisoning schedules the next one.
    migrator.poisonFrame(pages[3]->frame(), PoisonOrigin::Access);
    machine.charge(Tick{1});
    EXPECT_EQ(countEvents(machine.tracer(), TraceEventType::SoftOffline), 2u);

    for (PageCachePage *page : pages)
        destroyPage(page);
    kloc.unmapKnode(knode);
}

/**
 * migrateKnodeObjects() visits only the residency lists that can hold
 * an object off its destination: the other tiers' page lists and the
 * slab list. Each case below puts one object off the destination (or
 * holds one there) and expects the next call to move exactly it,
 * with the lists matching the trees after every step.
 */
class KlocMigrateMemo : public KlocTest
{
  protected:
    /** A knode of @p n pages, all demoted to the slow tier. */
    Knode *
    demotedKnode(int n)
    {
        Knode *knode = kloc.mapKnode(1);
        for (int i = 0; i < n; ++i)
            pages.push_back(makePage(knode));
        EXPECT_EQ(knode->pagesOn[fastId.value()].size(),
                  static_cast<size_t>(n));
        EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId),
                  static_cast<uint64_t>(n));
        expectListed(knode, 0, static_cast<size_t>(n));
        return knode;
    }

    /** @p knode's page lists hold @p fast and @p slow objects. */
    void
    expectListed(Knode *knode, size_t fast, size_t slow)
    {
        EXPECT_EQ(knode->pagesOn[fastId.value()].size(), fast);
        EXPECT_EQ(knode->pagesOn[slowId.value()].size(), slow);
        EXPECT_EQ(knodeResidencyError(*knode), "");
    }

    void
    TearDown() override
    {
        for (PageCachePage *page : pages)
            destroyPage(page);
        if (Knode *knode = kloc.findKnode(1))
            kloc.unmapKnode(knode);
    }

    std::vector<PageCachePage *> pages;
};

TEST_F(KlocMigrateMemo, RepeatCallChargesTheWalkAndMovesNothing)
{
    Knode *knode = demotedKnode(8);
    // Nothing is off the slow tier: the call visits no list entry
    // but charges a visit per member, every time.
    Tick before = machine.now();
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 0u);
    const Tick walk = machine.now() - before;
    EXPECT_GT(walk, Tick{});

    const uint64_t visits = kloc.treeNodesVisited();
    before = machine.now();
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 0u);
    EXPECT_EQ(machine.now() - before, walk);
    EXPECT_EQ(kloc.treeNodesVisited(), visits);
    expectListed(knode, 0, 8);
    for (PageCachePage *page : pages)
        EXPECT_EQ(page->frame()->tier, slowId);
}

TEST_F(KlocMigrateMemo, PromotedSiblingMovesBack)
{
    Knode *knode = demotedKnode(4);
    ASSERT_TRUE(migrator.migrateOne(pages[1]->frame(), fastId));
    expectListed(knode, 1, 3);
    EXPECT_EQ(knode->pagesOn[fastId.value()].front(), pages[1]);
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 1u);
    EXPECT_EQ(pages[1]->frame()->tier, slowId);
    expectListed(knode, 0, 4);
}

TEST_F(KlocMigrateMemo, NewObjectMoves)
{
    Knode *knode = demotedKnode(4);
    pages.push_back(makePage(knode));
    ASSERT_EQ(pages.back()->frame()->tier, fastId);
    expectListed(knode, 1, 4);
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 1u);
    EXPECT_EQ(pages.back()->frame()->tier, slowId);
    expectListed(knode, 0, 5);
}

TEST_F(KlocMigrateMemo, WidenedClassMaskMovesTheNewClass)
{
    Knode *knode = kloc.mapKnode(1);
    pages.push_back(makePage(knode));
    auto *dentry = new Dentry();
    ASSERT_TRUE(heap.allocBacking(*dentry, true, knode->id));
    kloc.addObject(knode, dentry);
    EXPECT_EQ(knode->slabObjs.size(), 1u);

    // Page-cache pages unmanaged: only the dentry's slab page moves;
    // the page stays listed on the fast tier.
    kloc.setManagedClasses(
        ~(1u << static_cast<unsigned>(ObjClass::PageCache)));
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 1u);
    EXPECT_EQ(dentry->frame()->tier, slowId);
    EXPECT_EQ(pages[0]->frame()->tier, fastId);
    expectListed(knode, 1, 0);

    kloc.setManagedClasses(~0u);
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 1u);
    EXPECT_EQ(pages[0]->frame()->tier, slowId);
    expectListed(knode, 0, 1);
    EXPECT_EQ(knode->slabObjs.size(), 1u) << "slab moves relink nothing";

    kloc.removeObject(dentry);
    heap.freeBacking(*dentry);
    delete dentry;
}

TEST_F(KlocMigrateMemo, PinnedFrameIsNotSettled)
{
    Knode *knode = kloc.mapKnode(1);
    for (int i = 0; i < 4; ++i)
        pages.push_back(makePage(knode));
    Frame *pinned = pages[2]->frame();
    ++pinned->pinCount;
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 3u);
    EXPECT_EQ(pinned->tier, fastId);
    expectListed(knode, 1, 3);

    --pinned->pinCount;
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, slowId), 1u);
    EXPECT_EQ(pinned->tier, slowId);
    expectListed(knode, 0, 4);
}

} // namespace
} // namespace kloc
