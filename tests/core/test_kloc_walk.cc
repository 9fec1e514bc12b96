/**
 * @file
 * The KLOC walk against its reference: KlocManager::collectBatch,
 * built from the residency lists, must batch the same frames in the
 * same order as a full walk of the knode's trees
 * (support/kloc_walk_oracle.hh), with split and unsplit trees, on a
 * three-tier stack, and under the churn that puts objects off a tier:
 * promotions of single siblings, pinned frames, a class mask that
 * widens and narrows, slab frames shared across knodes through the
 * group-0 pool, and migration_no_space and poison faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "core/kloc_manager.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"
#include "support/kloc_walk_oracle.hh"

namespace kloc {
namespace {

/** A three-tier stack with KLOC on; the parameter splits the trees. */
class KlocWalkOracle : public ::testing::TestWithParam<bool>
{
  protected:
    KlocWalkOracle()
        : machine(4, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        const char *names[] = {"fast", "mid", "slow"};
        const uint64_t pages[] = {96, 160, 1024};
        for (int t = 0; t < 3; ++t) {
            spec.name = names[t];
            spec.capacity = pages[t] * kPageSize;
            ids.push_back(tiers.addTier(spec));
        }
        placement = std::make_unique<StaticPlacement>(
            TierPreference{ids[0], ids[1], ids[2]},
            TierPreference{ids[0], ids[1], ids[2]});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setSplitTrees(GetParam());
        kloc.setEnabled(true);
        kloc.setTierOrder({ids[0], ids[1], ids[2]});
        for (uint64_t id = 1; id <= 4; ++id)
            knodes.push_back(kloc.mapKnode(id));
    }

    ~KlocWalkOracle() override
    {
        for (auto &obj : objects)
            drop(obj.get());
        for (Knode *knode : knodes)
            kloc.unmapKnode(knode);
    }

    /**
     * Track a new @p kind object under @p knode; a slab object with
     * @p shared draws from the group-0 pool, whose frames other
     * knodes' objects share. Returns nullptr when memory is full.
     */
    KernelObject *
    track(Knode *knode, KobjKind kind, bool shared = false)
    {
        auto obj = std::make_unique<KernelObject>(kind);
        if (!heap.allocBacking(*obj, true, shared ? 0 : knode->id))
            return nullptr;
        kloc.addObject(knode, obj.get());
        objects.push_back(std::move(obj));
        return objects.back().get();
    }

    void
    drop(KernelObject *obj)
    {
        if (obj->knode)
            kloc.removeObject(obj);
        heap.freeBacking(*obj);
    }

    /** Every knode's batch for every tier equals the tree walk. */
    void
    expectBatchesMatch(const char *when)
    {
        for (Knode *knode : knodes) {
            ASSERT_EQ(knodeResidencyError(*knode), "") << when;
            for (const TierId dst : ids) {
                ASSERT_EQ(listBatch(kloc, knode, dst),
                          treeWalkBatch(kloc, knode, dst))
                    << when << ": knode " << knode->id << " to tier "
                    << dst.value();
            }
        }
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<StaticPlacement> placement;
    std::vector<TierId> ids;
    std::vector<Knode *> knodes;
    std::vector<std::unique_ptr<KernelObject>> objects;
};

TEST_P(KlocWalkOracle, ThreeTierWalkTakesBothOtherTiersInIdOrder)
{
    Knode *knode = knodes[0];
    std::vector<KernelObject *> pages;
    for (int i = 0; i < 6; ++i)
        pages.push_back(track(knode, KobjKind::PageCachePage));
    KernelObject *dentry = track(knode, KobjKind::Dentry);
    // Spread the pages over all three tiers, out of id order.
    ASSERT_TRUE(migrator.migrateOne(pages[4]->frame(), ids[2]));
    ASSERT_TRUE(migrator.migrateOne(pages[1]->frame(), ids[2]));
    ASSERT_TRUE(migrator.migrateOne(pages[3]->frame(), ids[1]));
    ASSERT_TRUE(migrator.migrateOne(pages[0]->frame(), ids[1]));
    expectBatchesMatch("spread");

    // The local walk to the middle tier: fast and slow lists merge
    // back into id order, and the dentry's slab page follows them.
    const std::vector<Frame *> expected = {
        pages[1]->frame(), pages[2]->frame(), pages[4]->frame(),
        pages[5]->frame(), dentry->frame()};
    EXPECT_EQ(listBatch(kloc, knode, ids[1]), expected);
    EXPECT_EQ(kloc.migrateKnodeObjects(knode, ids[1]), 5u);
    EXPECT_EQ(knode->pagesOn[ids[1].value()].size(), 6u);
    EXPECT_TRUE(listBatch(kloc, knode, ids[1]).empty());
    expectBatchesMatch("after the local walk");
}

TEST_P(KlocWalkOracle, SharedGroupZeroSlabFrameBatchesOncePerKnode)
{
    // Extents of two knodes from the shared pool land on one slab
    // page, interleaved with each knode's own objects.
    std::vector<KernelObject *> shared;
    for (int i = 0; i < 6; ++i) {
        Knode *knode = knodes[static_cast<size_t>(i % 2)];
        shared.push_back(track(knode, KobjKind::Extent, true));
        track(knode, KobjKind::PageCachePage);
        track(knode, KobjKind::Dentry);
    }
    ASSERT_EQ(shared[0]->frame(), shared[5]->frame());
    expectBatchesMatch("interleaved");
    for (Knode *knode : {knodes[0], knodes[1]}) {
        const std::vector<Frame *> batch = listBatch(kloc, knode, ids[2]);
        EXPECT_EQ(std::count(batch.begin(), batch.end(),
                             shared[0]->frame()),
                  1);
    }

    // Demoting the first knode carries the shared page along: the
    // second knode's batch loses it, and its objects stay listed.
    EXPECT_GT(kloc.migrateKnodeObjects(knodes[0], ids[2]), 0u);
    EXPECT_EQ(shared[1]->frame()->tier, ids[2]);
    expectBatchesMatch("after the first knode's demotion");
    const std::vector<Frame *> batch = listBatch(kloc, knodes[1], ids[2]);
    EXPECT_EQ(std::count(batch.begin(), batch.end(), shared[1]->frame()),
              0);
}

TEST_P(KlocWalkOracle, PinnedFramesAndClassMaskAgreeWithTheTreeWalk)
{
    Knode *knode = knodes[0];
    std::vector<KernelObject *> pages;
    for (int i = 0; i < 8; ++i) {
        pages.push_back(track(knode, KobjKind::PageCachePage));
        track(knode, i % 2 ? KobjKind::JournalRecord : KobjKind::Dentry);
    }
    ++pages[3]->frame()->pinCount;
    kloc.setManagedClasses(
        ~(1u << static_cast<unsigned>(ObjClass::Journal)));
    expectBatchesMatch("journal unmanaged");
    kloc.migrateKnodeObjects(knode, ids[2]);
    EXPECT_EQ(pages[3]->frame()->tier, ids[0]) << "pinned stays";
    expectBatchesMatch("after a walk past a pin");

    --pages[3]->frame()->pinCount;
    kloc.setManagedClasses(~0u);
    expectBatchesMatch("mask widened, pin dropped");
    kloc.migrateKnodeObjects(knode, ids[2]);
    expectBatchesMatch("after the full walk");
    EXPECT_TRUE(listBatch(kloc, knode, ids[2]).empty());
}

TEST_P(KlocWalkOracle, BatchEqualsTreeWalkUnderChurnAndFaults)
{
    Rng rng(GetParam() ? 11 : 12);
    std::vector<KernelObject *> live;
    const KobjKind kinds[] = {KobjKind::PageCachePage, KobjKind::JournalPage,
                              KobjKind::Dentry, KobjKind::Extent,
                              KobjKind::JournalRecord, KobjKind::Inode};
    auto random_of = [&](auto &vec) {
        return vec[rng.nextBounded(vec.size())];
    };
    for (int step = 0; step < 1500; ++step) {
        if (step == 500) {
            // Destination exhaustion and poisoned copies from here on.
            FaultSpec spec;
            std::string err;
            ASSERT_TRUE(FaultSpec::parse(
                "seed 5\nmigration_no_space prob 0.2\n"
                "frame_poison_copy prob 0.05\n",
                spec, &err))
                << err;
            machine.faults().configure(spec);
        }
        const double action = rng.nextDouble();
        Knode *knode = random_of(knodes);
        if (action < 0.35) {
            const KobjKind kind = kinds[rng.nextBounded(6)];
            if (KernelObject *obj = track(knode, kind, rng.nextBool(0.25)))
                live.push_back(obj);
        } else if (action < 0.45 && !live.empty()) {
            const size_t idx = rng.nextBounded(live.size());
            drop(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        } else if (action < 0.6 && !live.empty()) {
            // A single sibling moves on its own: a touch promotion,
            // an LRU demotion or a tier drain would.
            migrator.migrateOne(random_of(live)->frame(), random_of(ids));
        } else if (action < 0.67 && !live.empty()) {
            Frame *frame = random_of(live)->frame();
            if (frame->pinned())
                --frame->pinCount;
            else
                ++frame->pinCount;
        } else if (action < 0.72) {
            kloc.setManagedClasses(rng.nextBool(0.5)
                ? ~0u
                : ~(1u << static_cast<unsigned>(
                      rng.nextBool(0.5) ? ObjClass::PageCache
                                        : ObjClass::FsSlab)));
        } else if (action < 0.75 && !live.empty()) {
            migrator.poisonFrame(random_of(live)->frame(),
                                 PoisonOrigin::Access);
        } else {
            const TierId dst = random_of(ids);
            ASSERT_EQ(listBatch(kloc, knode, dst),
                      treeWalkBatch(kloc, knode, dst))
                << "step " << step;
            kloc.migrateKnodeObjects(knode, dst);
        }
        machine.charge(Tick{static_cast<int64_t>(rng.nextBounded(2000))});
        ASSERT_EQ(klocResidencyError(kloc), "") << "step " << step;
        if (step % 50 == 0)
            expectBatchesMatch("churn");
    }
    machine.faults().clear();
    EXPECT_GT(migrator.stats().failedNoSpace + migrator.stats().noSpaceRetries,
              0u);
    EXPECT_GT(migrator.stats().failedPinned, 0u);
    EXPECT_GT(migrator.poisonStats().poisonedFrames, 0u);
    for (KernelObject *obj : live) {
        if (obj->frame()->pinned())
            obj->frame()->pinCount = 0;
    }
}

INSTANTIATE_TEST_SUITE_P(Trees, KlocWalkOracle, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "split" : "unsplit";
                         });

} // namespace
} // namespace kloc
