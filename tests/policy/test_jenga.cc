/**
 * @file
 * Jenga's promotion-rate controller (after Jenga, PAPERS.md) on a raw
 * two-tier stack. Each scan tick grades the pages it promoted on the
 * tick before: low reuse for a hysteresis streak of windows halves the
 * promotion batch down to its floor, where the scan period doubles;
 * sustained high reuse doubles the batch back up to its cap. Every
 * rate change emits exactly one PolicyRateAdapt trace event.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/kloc_manager.hh"
#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

/** Jenga's default scan period, promotion batch, floor and cap. */
constexpr Tick kPeriod = 100 * kMillisecond;
constexpr uint64_t kStartBatch = 4096;
constexpr uint64_t kFloor = 64;
constexpr uint64_t kCap = 8192;

/** Pages made hot on the slow tier before each scan tick. */
constexpr size_t kGroup = 32;

TEST(JengaRate, ReuseMovesTheBatchBetweenFloorAndCap)
{
    Machine machine(2, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    MigrationEngine migrator(machine, tiers, lru);
    KernelHeap heap(mem, tiers);
    KlocManager kloc(heap, migrator);

    // Both tiers hold every page, so no promotion is refused for
    // space and the fast tier never crosses the demotion watermark.
    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 2048 * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId fast = tiers.addTier(spec);
    spec.name = "slow";
    spec.readLatency = Tick{300};
    spec.writeLatency = Tick{300};
    spec.readBandwidth = 2 * kGiB;
    spec.writeBandwidth = 2 * kGiB;
    const TierId slow = tiers.addTier(spec);

    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);
    std::vector<uint64_t> adapted;  ///< the batch each event reports
    machine.tracer().addListener([&adapted](const TraceEvent &event) {
        if (event.type == TraceEventType::PolicyRateAdapt)
            adapted.push_back(event.args[0]);
    });

    // Every page starts slow, so each promotion is the policy's.
    StaticPlacement slow_first({slow, fast}, {slow, fast});
    heap.setPolicy(&slow_first);
    std::vector<Frame *> pages;
    for (size_t i = 0; i < 34 * kGroup; ++i) {
        pages.push_back(heap.allocAppPage());
        ASSERT_EQ(pages.back()->tier, slow);
    }

    TieringStrategy policy(
        *policyRow("jenga", PolicyPlatform::TwoTier),
        PolicyContext{heap, lru, migrator, &kloc, fast, slow},
        TieringStrategy::Config{});
    policy.install();
    policy.start();

    // One scan tick: make the next group hot on the slow tier (two
    // touches activate a page; the tick after next promotes it),
    // touch every fast-tier page when @p reuse so last tick's
    // promotions grade as reused, then run virtual time in 1 ms steps
    // until the tick fires. Each tick also checks the period rule:
    // the gap since the previous tick is doubled exactly when the
    // previous tick left the batch at its floor.
    size_t next = 0;
    Tick last_tick = machine.now();
    bool floor_before = false;
    auto tick = [&](bool reuse) {
        ASSERT_LE(next + kGroup, pages.size());
        for (size_t i = next; i < next + kGroup; ++i) {
            mem.touch(pages[i], 4 * kKiB, AccessType::Read);
            mem.touch(pages[i], 4 * kKiB, AccessType::Read);
        }
        next += kGroup;
        if (reuse) {
            for (Frame *frame : pages) {
                if (frame->tier == fast)
                    mem.touch(frame, 4 * kKiB, AccessType::Read);
            }
        }
        const uint64_t before = policy.scanTicks();
        while (policy.scanTicks() == before)
            machine.charge(kMillisecond);
        const Tick gap = machine.now() - last_tick;
        last_tick = machine.now();
        if (before > 0) {
            EXPECT_EQ(gap > 3 * kPeriod / 2, floor_before)
                << "tick " << before + 1 << " came " << gap
                << " ticks after the previous one";
        }
        floor_before = policy.promoteBatch().value() == kFloor;
    };

    // Tick 1 marks the first group hot, tick 2 promotes it; nothing
    // has been graded yet.
    tick(false);
    tick(false);
    EXPECT_EQ(policy.promoteBatch().value(), kStartBatch);

    // No promoted page is touched again: reuse 0. The first low
    // window only starts a streak; the second halves the batch.
    for (uint64_t batch = kStartBatch; batch > kFloor; batch /= 2) {
        tick(false);
        EXPECT_EQ(policy.promoteBatch().value(), batch);
        tick(false);
        EXPECT_EQ(policy.promoteBatch().value(), batch / 2);
    }
    EXPECT_EQ(policy.adaptations(), 6u);

    // The batch stops at the floor, and there the period stays
    // doubled (checked inside tick()).
    for (int i = 0; i < 4; ++i) {
        tick(false);
        EXPECT_EQ(policy.promoteBatch().value(), kFloor);
    }
    EXPECT_EQ(policy.adaptations(), 6u);

    // Every promoted page is touched again: reuse 1. Two high windows
    // double the batch, up to the cap.
    for (uint64_t batch = kFloor; batch < kCap; batch *= 2) {
        tick(true);
        EXPECT_EQ(policy.promoteBatch().value(), batch);
        tick(true);
        EXPECT_EQ(policy.promoteBatch().value(), batch * 2);
    }
    for (int i = 0; i < 2; ++i) {
        tick(true);
        EXPECT_EQ(policy.promoteBatch().value(), kCap);
    }

    // One event per change, carrying the new batch.
    const std::vector<uint64_t> expected = {2048, 1024, 512,  256, 128,
                                            64,   128,  256,  512, 1024,
                                            2048, 4096, 8192};
    EXPECT_EQ(adapted, expected);
    EXPECT_EQ(policy.adaptations(), expected.size());

    policy.stop();
    for (Frame *frame : pages)
        heap.freeAppPage(frame);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

} // namespace
} // namespace kloc
