/**
 * @file
 * Differential tests for MemAccessor::touchN: twin stacks, one driven
 * by n touch() calls and the other by touchN until n touches are
 * taken, must end with the same clock, RefStats, frame fields, LRU
 * list order, serialized trace, and events dispatched at the same
 * touch.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "mem/accessor.hh"
#include "mem/migration.hh"
#include "sim/daemon.hh"
#include "support/lambda_events.hh"

namespace kloc {
namespace {

/** One machine with a fast and a slow tier, traced from the start. */
struct Stack
{
    Stack() : machine(2, 1), tiers(machine), lru(machine, tiers),
              mem(machine, lru), daemon(machine), later(machine.events())
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 64 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{95};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 8 * kGiB;
        fastId = tiers.addTier(spec);
        spec.name = "slow";
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{420};
        slowId = tiers.addTier(spec);
        machine.tracer().setEnabled(true);
    }

    /** Record when an event or daemon run sees the machine. */
    void
    log()
    {
        seen.push_back({machine.now().value(),
                        static_cast<int64_t>(machine.kernelRefs()),
                        static_cast<int64_t>(machine.userRefs())});
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    std::unique_ptr<MigrationEngine> migrator;
    std::vector<std::vector<int64_t>> seen;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
    Daemon daemon;
    LambdaEvents later;
};

/** Prepares one stack and returns the frame both drivers touch. */
using StackSetup = std::function<Frame *(Stack &)>;

/** Pfns of @p list, hot end first. */
std::vector<uint64_t>
listOrder(FrameList &list)
{
    std::vector<uint64_t> pfns;
    for (Frame *frame : list)
        pfns.push_back(frame->pfn);
    return pfns;
}

void
expectSameFrame(const Frame &a, const Frame &b)
{
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.pfn, b.pfn);
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.objClass, b.objClass);
    EXPECT_EQ(a.relocatable, b.relocatable);
    EXPECT_EQ(a.migrateCount, b.migrateCount);
    EXPECT_EQ(a.pinCount, b.pinCount);
    EXPECT_EQ(a.onActiveList, b.onActiveList);
    EXPECT_EQ(a.referenced, b.referenced);
    EXPECT_EQ(a.scanMarks, b.scanMarks);
    EXPECT_EQ(a.dirty, b.dirty);
    EXPECT_EQ(a.poisoned, b.poisoned);
    EXPECT_EQ(a.allocTick, b.allocTick);
    EXPECT_EQ(a.lastAccessTick, b.lastAccessTick);
    EXPECT_EQ(a.lastWriteTick, b.lastWriteTick);
    EXPECT_EQ(a.shadowTier, b.shadowTier);
    EXPECT_EQ(a.shadowPfn, b.shadowPfn);
    EXPECT_EQ(a.shadowSince, b.shadowSince);
    EXPECT_EQ(a.lruHook.linked(), b.lruHook.linked());
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.generation, b.generation);
}

/**
 * Build twin stacks with @p setup, take @p n touches of @p bytes on
 * each (touch() one by one on the first, touchN on the second), and
 * compare everything a touch can change.
 * @return the touch() stack, for case-specific checks.
 */
std::unique_ptr<Stack>
expectTwinsAgree(const StackSetup &setup, Bytes bytes, AccessType type,
                 size_t n)
{
    auto one = std::make_unique<Stack>();
    Stack two;
    Frame *a = setup(*one);
    Frame *b = setup(two);
    for (uint64_t i = 0; i < n; ++i)
        one->mem.touch(a, bytes, type);
    for (size_t left = n; left > 0;) {
        const size_t taken = two.mem.touchN(b, bytes, type, left);
        EXPECT_GE(taken, 1u);
        EXPECT_LE(taken, left);
        left -= taken;
    }
    EXPECT_EQ(two.mem.touchN(b, bytes, type, 0), 0u);

    EXPECT_EQ(one->machine.now(), two.machine.now());
    EXPECT_EQ(one->machine.kernelRefs(), two.machine.kernelRefs());
    EXPECT_EQ(one->machine.userRefs(), two.machine.userRefs());
    EXPECT_EQ(one->machine.kernelRefTicks(), two.machine.kernelRefTicks());
    EXPECT_EQ(one->machine.userRefTicks(), two.machine.userRefTicks());
    expectSameFrame(*a, *b);
    for (TierId tier : {one->fastId, one->slowId}) {
        EXPECT_EQ(listOrder(one->tiers.tier(tier).activeList()),
                  listOrder(two.tiers.tier(tier).activeList()));
        EXPECT_EQ(listOrder(one->tiers.tier(tier).inactiveList()),
                  listOrder(two.tiers.tier(tier).inactiveList()));
    }
    EXPECT_EQ(one->seen, two.seen);
    EXPECT_EQ(one->machine.events().size(), two.machine.events().size());
    EXPECT_EQ(one->machine.tracer().emitted(),
              two.machine.tracer().emitted());
    EXPECT_EQ(one->machine.tracer().serialize(),
              two.machine.tracer().serialize());
    return one;
}

/** A fresh (inactive, unreferenced) frame behind two older ones. */
Frame *
freshPageCacheFrame(Stack &s)
{
    for (int i = 0; i < 2; ++i)
        s.tiers.alloc(0, ObjClass::PageCache, true, {s.fastId});
    Frame *frame =
        s.tiers.alloc(0, ObjClass::PageCache, true, {s.fastId});
    EXPECT_NE(frame, nullptr);
    return frame;
}

size_t
activations(const Stack &s)
{
    size_t count = 0;
    for (const TraceEvent &event : s.machine.tracer().events())
        count += event.type == TraceEventType::LruActivate;
    return count;
}

TEST(TouchN, InactiveUnreferencedFrameActivatesOnce)
{
    auto one = expectTwinsAgree(freshPageCacheFrame, Bytes{64},
                                AccessType::Read, 40);
    EXPECT_EQ(activations(*one), 1u);
}

TEST(TouchN, UnlinkedKernelFrame)
{
    const StackSetup unlinked = [](Stack &s) {
        Frame *frame =
            s.tiers.alloc(0, ObjClass::FsSlab, true, {s.slowId});
        // Isolated from its list, as a frame mid-migration is.
        s.tiers.tier(frame->tier).inactiveList().remove(frame);
        return frame;
    };
    auto one = expectTwinsAgree(unlinked, Bytes{256}, AccessType::Write,
                                33);
    EXPECT_GT(one->machine.kernelRefs(), 0u);
    EXPECT_EQ(one->machine.userRefs(), 0u);
}

TEST(TouchN, EventDueExactlyAtATouchAndOneDueNow)
{
    const StackSetup with_events = [](Stack &s) {
        Frame *frame = freshPageCacheFrame(s);
        // Settle the frame first so the events fall in a batch.
        for (int i = 0; i < 3; ++i)
            s.mem.touch(frame, Bytes{128}, AccessType::Write);
        const Tick cost = s.machine.memModel().accessCost(
            frame->tier, Bytes{128}, AccessType::Write,
            s.machine.currentSocket());
        Stack *stack = &s;
        s.later.at(s.machine.now(), [stack] { stack->log(); });
        s.later.at(s.machine.now() + 7 * cost, [stack] { stack->log(); });
        s.later.at(s.machine.now() + 12 * cost + Tick{1},
                   [stack] { stack->log(); });
        return frame;
    };
    auto one = expectTwinsAgree(with_events, Bytes{128},
                                AccessType::Write, 20);
    EXPECT_EQ(one->seen.size(), 3u);
}

TEST(TouchN, DaemonTicksInsideTheBatch)
{
    const StackSetup with_daemon = [](Stack &s) {
        Frame *frame = freshPageCacheFrame(s);
        Stack *stack = &s;
        s.daemon.setBody([stack](Tick period) {
            stack->log();
            return period;
        });
        s.daemon.start(Tick{500});
        return frame;
    };
    auto one = expectTwinsAgree(with_daemon, Bytes{64}, AccessType::Read,
                                200);
    EXPECT_GE(one->seen.size(), 3u);
}

TEST(TouchN, ArmedPoisonAccessConsultsEveryTouch)
{
    const StackSetup armed = [](Stack &s) {
        s.migrator = std::make_unique<MigrationEngine>(s.machine, s.tiers,
                                                       s.lru);
        FaultSpec spec;
        FaultRule &rule = spec.rules[static_cast<unsigned>(
            FaultSite::FramePoisonAccess)];
        rule.mode = FaultRule::Mode::Period;
        rule.period = 9;
        s.machine.faults().configure(spec);
        return freshPageCacheFrame(s);
    };
    auto one = expectTwinsAgree(armed, Bytes{64}, AccessType::Write, 30);
    EXPECT_GT(one->machine.faults()
                  .siteStats(FaultSite::FramePoisonAccess)
                  .consults,
              0u);
}

TEST(TouchN, ZeroAndOneTouch)
{
    expectTwinsAgree(freshPageCacheFrame, Bytes{64}, AccessType::Read, 0);
    expectTwinsAgree(freshPageCacheFrame, Bytes{64}, AccessType::Write, 1);
}

TEST(TouchN, SettledFrameWithNothingDueTakesEveryTouchInOneCall)
{
    Stack s;
    Frame *frame = freshPageCacheFrame(s);
    for (int i = 0; i < 3; ++i)
        s.mem.touch(frame, Bytes{64}, AccessType::Read);
    ASSERT_TRUE(LruEngine::touchSettled(frame));
    EXPECT_EQ(s.mem.touchN(frame, Bytes{64}, AccessType::Read, 1000),
              1000u);
    EXPECT_EQ(s.machine.kernelRefs(), 1003u);
}

} // namespace
} // namespace kloc
