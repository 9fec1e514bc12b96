/**
 * @file
 * Migration engine tests: batch moves, direction accounting
 * (Fig. 5b's demote/promote split), stale-reference skipping,
 * relocatability failures, and parallelism cost scaling.
 */

#include <gtest/gtest.h>

#include "mem/lru.hh"
#include "mem/migration.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest()
        : machine(2, 1),
          tiers(machine),
          lru(machine, tiers),
          migrator(machine, tiers, lru)
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
        spec.capacity = 64 * kPageSize;
        spec.readBandwidth /= 4;
        spec.writeBandwidth /= 4;
        slowId = tiers.addTier(spec);
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MigrationEngine migrator;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(MigrationTest, BatchMigrateMovesAllValid)
{
    std::vector<FrameRef> batch;
    std::vector<Frame *> frames;
    for (int i = 0; i < 8; ++i) {
        Frame *frame =
            tiers.alloc(0, ObjClass::PageCache, true, {fastId});
        frames.push_back(frame);
        batch.emplace_back(frame);
    }
    EXPECT_EQ(migrator.migrate(batch, slowId), 8u);
    for (Frame *frame : frames)
        EXPECT_EQ(frame->tier, slowId);
    EXPECT_EQ(migrator.stats().demotedPages, 8u);
    EXPECT_EQ(migrator.stats().promotedPages, 0u);
    EXPECT_EQ(migrator.stats().migratedPagesByClass[static_cast<unsigned>(
                  ObjClass::PageCache)],
              8u);
    for (Frame *frame : frames)
        tiers.free(frame);
}

TEST_F(MigrationTest, StaleRefsSkipped)
{
    Frame *frame = tiers.alloc(0, ObjClass::App, true, {fastId});
    std::vector<FrameRef> batch;
    batch.emplace_back(frame);
    tiers.free(frame);
    EXPECT_EQ(migrator.migrate(batch, slowId), 0u);
    EXPECT_EQ(migrator.stats().failedStale, 1u);
}

TEST_F(MigrationTest, NonRelocatableCounted)
{
    Frame *slab = tiers.alloc(0, ObjClass::FsSlab, false, {fastId});
    std::vector<FrameRef> batch;
    batch.emplace_back(slab);
    EXPECT_EQ(migrator.migrate(batch, slowId), 0u);
    EXPECT_EQ(migrator.stats().failedNotRelocatable, 1u);
    EXPECT_EQ(slab->tier, fastId);
    tiers.free(slab);
}

TEST_F(MigrationTest, DestinationFullCounted)
{
    // Fill the slow tier completely.
    std::vector<Frame *> fillers;
    while (Frame *f = tiers.alloc(0, ObjClass::App, true, {slowId}))
        fillers.push_back(f);
    Frame *frame = tiers.alloc(0, ObjClass::App, true, {fastId});
    std::vector<FrameRef> batch;
    batch.emplace_back(frame);
    EXPECT_EQ(migrator.migrate(batch, slowId), 0u);
    EXPECT_EQ(migrator.stats().failedNoSpace, 1u);
    tiers.free(frame);
    for (Frame *f : fillers)
        tiers.free(f);
}

TEST_F(MigrationTest, PromotionCountsOppositeDirection)
{
    Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {slowId});
    ASSERT_TRUE(migrator.migrateOne(frame, fastId));
    EXPECT_EQ(migrator.stats().promotedPages, 1u);
    EXPECT_EQ(migrator.stats().demotedPages, 0u);
    tiers.free(frame);
}

TEST_F(MigrationTest, ParallelismReducesChargedTime)
{
    auto run_with = [&](unsigned width) {
        Machine m(2, 1);
        TierManager t(m);
        LruEngine l(m, t);
        MigrationEngine engine(m, t, l);
        TierSpec spec;
        spec.name = "a";
        spec.capacity = 64 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = kGiB;
        spec.writeBandwidth = kGiB;
        const TierId a = t.addTier(spec);
        spec.name = std::string("b");
        const TierId b = t.addTier(spec);
        engine.setParallelism(width);
        std::vector<FrameRef> batch;
        std::vector<Frame *> frames;
        for (int i = 0; i < 32; ++i) {
            frames.push_back(t.alloc(0, ObjClass::App, true, {a}));
            batch.emplace_back(frames.back());
        }
        const Tick before = m.now();
        engine.migrate(batch, b);
        const Tick cost = m.now() - before;
        for (Frame *f : frames)
            t.free(f);
        return cost;
    };
    const Tick serial = run_with(1);
    const Tick parallel = run_with(8);
    EXPECT_GT(serial, parallel * 6);
}

TEST_F(MigrationTest, DemotionOfActiveFrameStripsLruStanding)
{
    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {fastId});
    lru.onAccessed(frame);
    lru.onAccessed(frame);  // second touch promotes to the active list
    ASSERT_TRUE(frame->onActiveList);
    ASSERT_EQ(lru.activeCount(fastId), 1u);

    ASSERT_TRUE(migrator.migrateOne(frame, slowId));
    // The demoted frame lands on the slow tier's inactive list: it
    // must re-earn active standing through genuine reuse.
    EXPECT_EQ(frame->tier, slowId);
    EXPECT_FALSE(frame->onActiveList);
    EXPECT_EQ(lru.activeCount(fastId), 0u);
    EXPECT_EQ(lru.inactiveCount(fastId), 0u);
    EXPECT_EQ(lru.activeCount(slowId), 0u);
    EXPECT_EQ(lru.inactiveCount(slowId), 1u);

    tiers.free(frame);
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_GT(checker.eventsChecked(), 0u);
}

TEST_F(MigrationTest, PromotionOfActiveFramePreservesLruStanding)
{
    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {slowId});
    lru.onAccessed(frame);
    lru.onAccessed(frame);
    ASSERT_TRUE(frame->onActiveList);

    ASSERT_TRUE(migrator.migrateOne(frame, fastId));
    // Promotion keeps the earned standing on the destination tier.
    EXPECT_EQ(frame->tier, fastId);
    EXPECT_TRUE(frame->onActiveList);
    EXPECT_EQ(lru.activeCount(fastId), 1u);
    EXPECT_EQ(lru.activeCount(slowId), 0u);
    EXPECT_EQ(lru.inactiveCount(slowId), 0u);

    lru.deactivate(frame);  // strip standing so free is list-clean
    EXPECT_EQ(lru.inactiveCount(fastId), 1u);
    tiers.free(frame);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(MigrationTest, ResetStatsClears)
{
    Frame *frame = tiers.alloc(0, ObjClass::App, true, {fastId});
    migrator.migrateOne(frame, slowId);
    EXPECT_GT(migrator.stats().migratedPages, 0u);
    migrator.resetStats();
    EXPECT_EQ(migrator.stats().migratedPages, 0u);
    EXPECT_EQ(migrator.stats().attempts, 0u);
    tiers.free(frame);
}

} // namespace
} // namespace kloc
