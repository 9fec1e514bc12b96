/**
 * @file
 * LRU engine tests: two-list promotion dynamics, scan aging and
 * demotion candidates, two-scan promotion confirmation, migration
 * list handoff, scan cost accounting, and the poison consults of the
 * inline access path.
 */

#include <gtest/gtest.h>

#include "mem/lru.hh"
#include "mem/migration.hh"
#include "sim/machine.hh"

namespace kloc {
namespace {

class LruTest : public ::testing::Test
{
  protected:
    LruTest() : machine(2, 1), tiers(machine), lru(machine, tiers)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 128 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fastId = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 128 * kPageSize;
        slowId = tiers.addTier(spec);
    }

    Frame *
    alloc(TierId tier)
    {
        Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {tier});
        EXPECT_NE(frame, nullptr);
        return frame;
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(LruTest, FreshFramesStartInactive)
{
    Frame *frame = alloc(fastId);
    EXPECT_FALSE(frame->onActiveList);
    EXPECT_EQ(lru.inactiveCount(fastId), 1u);
    EXPECT_EQ(lru.activeCount(fastId), 0u);
    tiers.free(frame);
    EXPECT_EQ(lru.inactiveCount(fastId), 0u);
}

TEST_F(LruTest, SecondTouchActivates)
{
    Frame *frame = alloc(fastId);
    lru.onAccessed(frame);
    EXPECT_FALSE(frame->onActiveList) << "one touch must not activate";
    lru.onAccessed(frame);
    EXPECT_TRUE(frame->onActiveList);
    EXPECT_EQ(lru.activeCount(fastId), 1u);
    tiers.free(frame);
}

TEST_F(LruTest, ScanDeactivatesUnreferencedActives)
{
    Frame *frame = alloc(fastId);
    lru.onAccessed(frame);
    lru.onAccessed(frame);
    ASSERT_TRUE(frame->onActiveList);
    // First scan clears the referenced bit set by activation...
    ScanResult result;
    lru.scanTier(fastId, FrameCount{100}, result);
    // ...the next scan (no touches in between) deactivates.
    lru.scanTier(fastId, FrameCount{100}, result);
    EXPECT_FALSE(frame->onActiveList);
    tiers.free(frame);
}

TEST_F(LruTest, ColdInactiveFramesAreDemoteCandidates)
{
    Frame *hot = alloc(fastId);
    Frame *cold = alloc(fastId);
    lru.onAccessed(hot);  // referenced while inactive
    ScanResult result;
    lru.scanTier(fastId, FrameCount{100}, result);
    ASSERT_EQ(result.demoteCandidates.size(), 1u);
    EXPECT_EQ(result.demoteCandidates[0].get(), cold);
    tiers.free(hot);
    tiers.free(cold);
}

TEST_F(LruTest, ScanChargesPaperCalibratedCost)
{
    for (int i = 0; i < 100; ++i)
        alloc(fastId);
    const Tick before = machine.now();
    ScanResult result;
    lru.scanTier(fastId, FrameCount{100}, result);
    EXPECT_EQ(result.scanned, 100u);
    // 2 us per page, divided by the background factor of 4.
    EXPECT_EQ(machine.now() - before,
              100 * LruEngine::kScanCostPerPage / 4);
    EXPECT_EQ(lru.totalScanned(), 100u);
}

// §3.3: an LRU scan of one million pages costs about two seconds,
// which is why scan-driven tiering cannot follow kernel objects.
// 125 full scans of an 8,000-frame tier visit exactly 1,000,000 pages;
// undoing the background factor of 4 must give 2 s to the tick.
TEST_F(LruTest, MillionPageScanCostsTwoSeconds)
{
    constexpr uint64_t kFrames = 8000;
    constexpr uint64_t kPages = 1000000;
    TierSpec spec;
    spec.name = "scan";
    spec.capacity = kFrames * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId scanId = tiers.addTier(spec);
    std::vector<Frame *> frames;
    for (uint64_t i = 0; i < kFrames; ++i)
        frames.push_back(alloc(scanId));

    const Tick before = machine.now();
    uint64_t scanned = 0;
    ScanResult result;
    while (scanned < kPages) {
        lru.scanTier(scanId, FrameCount{kFrames}, result);
        scanned += result.scanned;
    }
    ASSERT_EQ(scanned, kPages);
    EXPECT_EQ((machine.now() - before) * 4, 2 * kSecond);
    for (Frame *frame : frames)
        tiers.free(frame);
}

TEST_F(LruTest, CollectHotRequiresTwoScans)
{
    Frame *frame = alloc(slowId);
    lru.onAccessed(frame);
    lru.onAccessed(frame);
    ASSERT_TRUE(frame->onActiveList);
    std::vector<FrameRef> hot;
    lru.collectHot(slowId, FrameCount{10}, hot);
    EXPECT_TRUE(hot.empty()) << "promoted without confirmation scan";
    lru.collectHot(slowId, FrameCount{10}, hot);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0].get(), frame);
    tiers.free(frame);
}

TEST_F(LruTest, MigrationMovesListMembership)
{
    Machine &m = machine;
    (void)m;
    MigrationEngine migrator(machine, tiers, lru);
    Frame *frame = alloc(fastId);
    lru.onAccessed(frame);
    lru.onAccessed(frame);
    ASSERT_TRUE(frame->onActiveList);
    ASSERT_TRUE(migrator.migrateOne(frame, slowId));
    EXPECT_EQ(frame->tier, slowId);
    EXPECT_EQ(lru.activeCount(fastId), 0u);
    // Demotion strips active standing (deactivate-on-demote).
    EXPECT_EQ(lru.inactiveCount(slowId), 1u);
    EXPECT_FALSE(frame->onActiveList);
    EXPECT_FALSE(frame->referenced);
    tiers.free(frame);
}

TEST_F(LruTest, DeactivateStripsStanding)
{
    Frame *frame = alloc(fastId);
    lru.onAccessed(frame);
    lru.onAccessed(frame);
    ASSERT_TRUE(frame->onActiveList);
    lru.deactivate(frame);
    EXPECT_FALSE(frame->onActiveList);
    EXPECT_FALSE(frame->referenced);
    EXPECT_EQ(lru.inactiveCount(fastId), 1u);
    tiers.free(frame);
}

TEST_F(LruTest, ScanBudgetLimitsWork)
{
    for (int i = 0; i < 50; ++i)
        alloc(fastId);
    ScanResult result;
    lru.scanTier(fastId, FrameCount{10}, result);
    EXPECT_EQ(result.scanned, 10u);
    EXPECT_LE(result.demoteCandidates.size(), 10u);
}

TEST_F(LruTest, ScanChargesPerPageForHighOrderFrames)
{
    // 8 order-2 frames: 8 list entries but 32 pages of page-table
    // walking. Scan cost must follow pages, not frames.
    std::vector<Frame *> frames;
    for (int i = 0; i < 8; ++i) {
        Frame *frame = tiers.alloc(2, ObjClass::App, true, {fastId});
        ASSERT_NE(frame, nullptr);
        frames.push_back(frame);
    }
    const Tick before = machine.now();
    ScanResult result;
    lru.scanTier(fastId, FrameCount{8}, result);
    EXPECT_EQ(result.scanned, 8u);
    EXPECT_EQ(result.pagesVisited, 32u);
    EXPECT_EQ(machine.now() - before,
              32 * LruEngine::kScanCostPerPage / 4);
    EXPECT_EQ(lru.totalPagesVisited(), 32u);
    for (Frame *frame : frames)
        tiers.free(frame);
}

TEST_F(LruTest, TruncatedScanChargesVisitedPages)
{
    // A scan that early-exits on budget still pays for every page it
    // actually looked at — no free peeking.
    for (int i = 0; i < 50; ++i)
        alloc(fastId);
    const Tick before = machine.now();
    ScanResult result;
    lru.scanTier(fastId, FrameCount{10}, result);
    EXPECT_EQ(result.scanned, 10u);
    EXPECT_EQ(result.pagesVisited, 10u);
    EXPECT_EQ(machine.now() - before,
              10 * LruEngine::kScanCostPerPage / 4);
}

TEST_F(LruTest, CollectHotChargesPerPage)
{
    // 4 order-1 frames = 8 pages visited per collection pass.
    std::vector<Frame *> frames;
    for (int i = 0; i < 4; ++i) {
        Frame *frame = tiers.alloc(1, ObjClass::App, true, {slowId});
        ASSERT_NE(frame, nullptr);
        lru.onAccessed(frame);
        lru.onAccessed(frame);
        frames.push_back(frame);
    }
    const uint64_t before = lru.totalPagesVisited();
    std::vector<FrameRef> hot;
    lru.collectHot(slowId, FrameCount{10}, hot);
    EXPECT_EQ(lru.totalPagesVisited() - before, 8u);
    for (Frame *frame : frames)
        tiers.free(frame);
}

TEST_F(LruTest, ScratchReuseClearsBetweenScans)
{
    // Policies keep one ScanResult/vector alive across ticks; each
    // call must start from cleared state, not accumulate.
    for (int i = 0; i < 20; ++i)
        alloc(fastId);
    ScanResult scratch;
    lru.scanTier(fastId, FrameCount{20}, scratch);
    EXPECT_EQ(scratch.scanned, 20u);
    const size_t first_candidates = scratch.demoteCandidates.size();
    EXPECT_GT(first_candidates, 0u);
    // Second scan with the same scratch: the inactive frames were
    // rotated, results must not stack on top of the first pass.
    lru.scanTier(fastId, FrameCount{20}, scratch);
    EXPECT_EQ(scratch.scanned, 20u);
    EXPECT_LE(scratch.demoteCandidates.size(), 20u);
    // An empty tier yields an empty (but reusable) result.
    lru.scanTier(slowId, FrameCount{20}, scratch);
    EXPECT_EQ(scratch.scanned, 0u);
    EXPECT_TRUE(scratch.demoteCandidates.empty());
    std::vector<FrameRef> hot;
    lru.collectHot(fastId, FrameCount{10}, hot);
    lru.collectHot(slowId, FrameCount{10}, hot);
    EXPECT_TRUE(hot.empty());
}

TEST_F(LruTest, MembershipFollowsBatchMigration)
{
    MigrationEngine migrator(machine, tiers, lru);
    std::vector<Frame *> frames;
    std::vector<FrameRef> batch;
    for (int i = 0; i < 16; ++i) {
        Frame *frame = alloc(fastId);
        if (i % 2 == 1) {
            lru.onAccessed(frame);
            lru.onAccessed(frame);
        }
        frames.push_back(frame);
        batch.emplace_back(frame);
    }
    ASSERT_EQ(lru.activeCount(fastId), 8u);
    ASSERT_EQ(lru.inactiveCount(fastId), 8u);

    // Demote the whole batch: membership moves tiers and demotion
    // strips active standing, so every frame lands inactive on slow.
    EXPECT_EQ(migrator.migrate(batch, slowId), 16u);
    EXPECT_EQ(lru.activeCount(fastId), 0u);
    EXPECT_EQ(lru.inactiveCount(fastId), 0u);
    EXPECT_EQ(lru.activeCount(slowId), 0u);
    EXPECT_EQ(lru.inactiveCount(slowId), 16u);
    for (Frame *frame : frames) {
        EXPECT_EQ(frame->tier, slowId);
        EXPECT_FALSE(frame->onActiveList);
    }

    // Promote half back: promotion preserves earned standing.
    std::vector<FrameRef> promote;
    for (int i = 0; i < 8; ++i) {
        lru.onAccessed(frames[static_cast<size_t>(i)]);
        lru.onAccessed(frames[static_cast<size_t>(i)]);
        promote.emplace_back(frames[static_cast<size_t>(i)]);
    }
    ASSERT_EQ(lru.activeCount(slowId), 8u);
    EXPECT_EQ(migrator.migrate(promote, fastId), 8u);
    EXPECT_EQ(lru.activeCount(fastId), 8u);
    EXPECT_EQ(lru.inactiveCount(fastId), 0u);
    EXPECT_EQ(lru.activeCount(slowId), 0u);
    EXPECT_EQ(lru.inactiveCount(slowId), 8u);
    for (Frame *frame : frames)
        tiers.free(frame);
    EXPECT_EQ(lru.activeCount(fastId) + lru.inactiveCount(fastId) +
                  lru.activeCount(slowId) + lru.inactiveCount(slowId),
              0u);
}

TEST_F(LruTest, MembershipSurvivesTierOffline)
{
    MigrationEngine migrator(machine, tiers, lru);
    std::vector<Frame *> frames;
    for (int i = 0; i < 12; ++i) {
        Frame *frame = alloc(slowId);
        if (i % 3 == 0) {
            lru.onAccessed(frame);
            lru.onAccessed(frame);
        }
        frames.push_back(frame);
    }
    ASSERT_EQ(lru.activeCount(slowId), 4u);
    ASSERT_EQ(lru.inactiveCount(slowId), 8u);

    // Offlining drains every frame to the remaining tier; no frame
    // may keep LRU membership on the dead tier.
    migrator.offlineTier(slowId);
    EXPECT_EQ(lru.activeCount(slowId), 0u);
    EXPECT_EQ(lru.inactiveCount(slowId), 0u);
    EXPECT_EQ(lru.activeCount(fastId) + lru.inactiveCount(fastId), 12u);
    for (Frame *frame : frames)
        EXPECT_EQ(frame->tier, fastId);
    for (Frame *frame : frames)
        tiers.free(frame);
    EXPECT_EQ(lru.activeCount(fastId) + lru.inactiveCount(fastId), 0u);
}

/** Arm frame_poison_access to fire on every @p period-th consult. */
void
armPoisonAccess(Machine &machine, uint64_t period)
{
    FaultSpec spec;
    FaultRule &rule =
        spec.rules[static_cast<unsigned>(FaultSite::FramePoisonAccess)];
    rule.mode = FaultRule::Mode::Period;
    rule.period = period;
    machine.faults().configure(spec);
}

TEST_F(LruTest, ArmedAccessConsultsOncePerTouchOfUnpoisonedFrame)
{
    // The MigrationEngine registers the containment hook; every 5th
    // consult poisons. Pinned frames cannot be evacuated, so they
    // stay poisoned in place and later touches of them must not
    // consult.
    MigrationEngine migrator(machine, tiers, lru);
    armPoisonAccess(machine, 5);
    std::vector<Frame *> frames;
    for (int i = 0; i < 8; ++i) {
        frames.push_back(alloc(slowId));
        frames.back()->pinCount = i % 2;
    }
    uint64_t unpoisoned_touches = 0;
    for (int round = 0; round < 4; ++round) {
        for (Frame *frame : frames) {
            if (!frame->poisoned)
                ++unpoisoned_touches;
            lru.onAccessed(frame);
        }
    }
    const auto &stats =
        machine.faults().siteStats(FaultSite::FramePoisonAccess);
    EXPECT_GT(stats.fires, 0u);
    EXPECT_LT(unpoisoned_touches, 32u) << "no touch reached a poisoned frame";
    EXPECT_EQ(stats.consults, unpoisoned_touches);
    for (Frame *frame : frames) {
        frame->pinCount = 0;
        tiers.free(frame);
    }
}

TEST_F(LruTest, ArmedAccessWithoutHookNeverConsults)
{
    armPoisonAccess(machine, 1);
    Frame *frame = alloc(fastId);
    for (int i = 0; i < 4; ++i)
        lru.onAccessed(frame);
    EXPECT_TRUE(frame->onActiveList);
    EXPECT_FALSE(frame->poisoned);
    EXPECT_EQ(machine.faults()
                  .siteStats(FaultSite::FramePoisonAccess)
                  .consults,
              0u);
    tiers.free(frame);
}

TEST_F(LruTest, ArmedSecondTouchStillActivates)
{
    MigrationEngine migrator(machine, tiers, lru);
    armPoisonAccess(machine, 1000000);
    machine.tracer().setEnabled(true);
    Frame *frame = alloc(fastId);
    lru.onAccessed(frame);
    EXPECT_FALSE(frame->onActiveList);
    lru.onAccessed(frame);
    EXPECT_TRUE(frame->onActiveList);
    EXPECT_EQ(lru.activeCount(fastId), 1u);
    EXPECT_EQ(lru.inactiveCount(fastId), 0u);
    size_t activations = 0;
    for (const TraceEvent &event : machine.tracer().events())
        activations += event.type == TraceEventType::LruActivate;
    EXPECT_EQ(activations, 1u);
    EXPECT_EQ(machine.faults()
                  .siteStats(FaultSite::FramePoisonAccess)
                  .consults,
              2u);
    machine.tracer().setEnabled(false);
    tiers.free(frame);
}

} // namespace
} // namespace kloc
