/**
 * @file
 * Differential tests for MemAccessor's batched touches, on twin
 * stacks that must end with the same clock, RefStats, frame fields
 * and shadow records, LRU list order, serialized trace, and events
 * dispatched at the same touch:
 *   - touchN: one stack takes n touch() calls of one frame, the
 *     other calls touchN until n touches are taken;
 *   - touchEach: one stack takes a touch() of each frame of a run,
 *     the other one touchEach of the run.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/accessor.hh"
#include "mem/migration.hh"
#include "sim/daemon.hh"
#include "support/lambda_events.hh"

namespace kloc {
namespace {

/**
 * One machine with a fast and a slow tier, plus @p extra_tiers
 * further tiers, traced from the start.
 */
struct Stack
{
    explicit Stack(int extra_tiers = 0)
        : machine(2, 1), tiers(machine), lru(machine, tiers),
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
        for (int i = 0; i < extra_tiers; ++i) {
            spec.name = "far" + std::to_string(i);
            spec.readLatency = Tick{500 + 10 * i};
            spec.writeLatency = Tick{600 + 10 * i};
            lastId = tiers.addTier(spec);
        }
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
    TierId lastId = kInvalidTier;  ///< the last extra tier, if any
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
expectSameFrame(const Stack &one, const Frame &a, const Stack &two,
                const Frame &b)
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
    EXPECT_EQ(a.shadowed, b.shadowed);
    const ShadowRecord *sa = one.tiers.shadowOf(&a);
    const ShadowRecord *sb = two.tiers.shadowOf(&b);
    ASSERT_EQ(sa == nullptr, sb == nullptr);
    if (sa != nullptr) {
        EXPECT_EQ(sa->tier, sb->tier);
        EXPECT_EQ(sa->pfn, sb->pfn);
        EXPECT_EQ(sa->since, sb->since);
    }
    EXPECT_EQ(a.lruHook.linked(), b.lruHook.linked());
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.generation, b.generation);
}

/**
 * Compare everything a touch can change on twin stacks: the clock,
 * RefStats, the fields of @p a and @p b pairwise, every tier's LRU
 * list order, what the events saw, and the trace.
 */
void
expectStacksAgree(Stack &one, Stack &two, const std::vector<Frame *> &a,
                  const std::vector<Frame *> &b)
{
    EXPECT_EQ(one.machine.now(), two.machine.now());
    EXPECT_EQ(one.machine.kernelRefs(), two.machine.kernelRefs());
    EXPECT_EQ(one.machine.userRefs(), two.machine.userRefs());
    EXPECT_EQ(one.machine.kernelRefTicks(), two.machine.kernelRefTicks());
    EXPECT_EQ(one.machine.userRefTicks(), two.machine.userRefTicks());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameFrame(one, *a[i], two, *b[i]);
    for (size_t t = 0; t < one.tiers.tierCount(); ++t) {
        const auto tier = static_cast<TierId>(t);
        EXPECT_EQ(listOrder(one.tiers.tier(tier).activeList()),
                  listOrder(two.tiers.tier(tier).activeList()));
        EXPECT_EQ(listOrder(one.tiers.tier(tier).inactiveList()),
                  listOrder(two.tiers.tier(tier).inactiveList()));
    }
    EXPECT_EQ(one.seen, two.seen);
    EXPECT_EQ(one.machine.events().size(), two.machine.events().size());
    EXPECT_EQ(one.machine.tracer().emitted(),
              two.machine.tracer().emitted());
    EXPECT_EQ(one.machine.tracer().serialize(),
              two.machine.tracer().serialize());
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
    expectStacksAgree(*one, two, {a}, {b});
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

// ---------------------------------------------------------------------------
// touchEach: one touch per frame of a run.

/** Prepares one stack and returns the run: frames in touch order. */
using RunSetup = std::function<std::vector<Frame *>(Stack &)>;

/**
 * Build twin stacks of @p extra_tiers with @p setup, touch @p bytes of
 * each frame of the run (touch() one by one on the first, touchEach on
 * the second), and compare everything a touch can change.
 * @return the touch() stack, for case-specific checks.
 */
std::unique_ptr<Stack>
expectRunTwinsAgree(const RunSetup &setup, Bytes bytes, AccessType type,
                    int extra_tiers = 0)
{
    auto one = std::make_unique<Stack>(extra_tiers);
    Stack two(extra_tiers);
    const std::vector<Frame *> a = setup(*one);
    const std::vector<Frame *> b = setup(two);
    for (Frame *frame : a)
        one->mem.touch(frame, bytes, type);
    two.mem.touchEach(b.data(), b.size(), bytes, type);
    expectStacksAgree(*one, two, a, b);
    return one;
}

/**
 * @p count frames of @p cls, alternating between the fast and the slow
 * tier, each fresh (inactive, unreferenced).
 */
std::vector<Frame *>
mixedTierFrames(Stack &s, size_t count, ObjClass cls = ObjClass::App)
{
    std::vector<Frame *> frames;
    for (size_t i = 0; i < count; ++i) {
        const TierId tier = i % 2 == 0 ? s.fastId : s.slowId;
        Frame *frame = s.tiers.alloc(0, cls, true, {tier});
        EXPECT_NE(frame, nullptr);
        frames.push_back(frame);
    }
    return frames;
}

/** The tick at which the first @p k touches of @p run end. */
Tick
endOfTouches(Stack &s, const std::vector<Frame *> &run, size_t k,
             Bytes bytes, AccessType type)
{
    Tick at = s.machine.now();
    for (size_t i = 0; i < k; ++i) {
        at += s.machine.memModel().accessCost(run[i]->tier, bytes, type,
                                              s.machine.currentSocket());
    }
    return at;
}

TEST(TouchEach, EventDueMidRunAndOneDueExactlyAtATouch)
{
    const RunSetup with_events = [](Stack &s) {
        std::vector<Frame *> run = mixedTierFrames(s, 24);
        Stack *stack = &s;
        // Due exactly when the 9th touch ends, and between the 15th
        // and the 16th.
        s.later.at(endOfTouches(s, run, 9, Bytes{256}, AccessType::Write),
                   [stack] { stack->log(); });
        s.later.at(endOfTouches(s, run, 15, Bytes{256}, AccessType::Write) +
                       Tick{1},
                   [stack] { stack->log(); });
        return run;
    };
    auto one = expectRunTwinsAgree(with_events, Bytes{256},
                                   AccessType::Write);
    EXPECT_EQ(one->seen.size(), 2u);
}

TEST(TouchEach, DaemonMigratesALaterFrameBeforeTheRunReachesIt)
{
    const RunSetup with_daemon = [](Stack &s) {
        s.migrator = std::make_unique<MigrationEngine>(s.machine, s.tiers,
                                                       s.lru);
        std::vector<Frame *> run;
        for (int i = 0; i < 40; ++i)
            run.push_back(s.tiers.alloc(0, ObjClass::App, true, {s.slowId}));
        Stack *stack = &s;
        Frame *last = run.back();
        s.daemon.setBody([stack, last](Tick period) {
            stack->log();
            if (last->tier == stack->slowId)
                stack->migrator->migrate({FrameRef(last)}, stack->fastId);
            return period;
        });
        s.daemon.start(Tick{2000});
        return run;
    };
    auto one = expectRunTwinsAgree(with_daemon, Bytes{64}, AccessType::Read);
    EXPECT_GE(one->seen.size(), 1u);
    EXPECT_EQ(one->migrator->stats().promotedPages, 1u);
}

TEST(TouchEach, InactiveReferencedFrameMidRunActivates)
{
    const RunSetup referenced = [](Stack &s) {
        std::vector<Frame *> run = mixedTierFrames(s, 12);
        // Referenced once already: its next touch promotes it.
        s.mem.touch(run[5], Bytes{64}, AccessType::Read);
        // Frames touched twice in one run: each second touch promotes.
        run.push_back(run[2]);
        run.push_back(run[7]);
        return run;
    };
    auto one = expectRunTwinsAgree(referenced, Bytes{64}, AccessType::Read);
    EXPECT_EQ(activations(*one), 3u);
}

TEST(TouchEach, MixedKernelAndAppFrames)
{
    const RunSetup mixed = [](Stack &s) {
        std::vector<Frame *> run;
        const std::vector<Frame *> app = mixedTierFrames(s, 10);
        const std::vector<Frame *> slab =
            mixedTierFrames(s, 10, ObjClass::FsSlab);
        for (size_t i = 0; i < app.size(); ++i) {
            run.push_back(app[i]);
            run.push_back(slab[i]);
        }
        // Unlinked, as a frame mid-migration is.
        s.tiers.tier(slab[3]->tier).inactiveList().remove(slab[3]);
        return run;
    };
    auto one = expectRunTwinsAgree(mixed, Bytes{4096}, AccessType::Write);
    EXPECT_EQ(one->machine.kernelRefs(), 10u);
    EXPECT_EQ(one->machine.userRefs(), 10u);
}

TEST(TouchEach, ArmedPoisonAccessConsultsEveryTouch)
{
    const RunSetup armed = [](Stack &s) {
        s.migrator = std::make_unique<MigrationEngine>(s.machine, s.tiers,
                                                       s.lru);
        FaultSpec spec;
        FaultRule &rule = spec.rules[static_cast<unsigned>(
            FaultSite::FramePoisonAccess)];
        rule.mode = FaultRule::Mode::Period;
        rule.period = 7;
        s.machine.faults().configure(spec);
        std::vector<Frame *> run = mixedTierFrames(s, 30);
        return run;
    };
    auto one = expectRunTwinsAgree(armed, Bytes{64}, AccessType::Write);
    EXPECT_EQ(one->machine.faults()
                  .siteStats(FaultSite::FramePoisonAccess)
                  .consults,
              30u);
}

TEST(TouchEach, TierPastTheCostTableTakesTheFullPath)
{
    const RunSetup far = [](Stack &s) {
        std::vector<Frame *> run = mixedTierFrames(s, 6);
        for (int i = 0; i < 4; ++i)
            run.push_back(s.tiers.alloc(0, ObjClass::App, true, {s.lastId}));
        run.push_back(run[0]);
        return run;
    };
    auto one = expectRunTwinsAgree(far, Bytes{64}, AccessType::Read, 4);
    EXPECT_EQ(one->tiers.tierCount(), 6u);
    EXPECT_EQ(activations(*one), 1u);
}

TEST(TouchEach, SweepsWithADaemonTicking)
{
    const RunSetup sweeps = [](Stack &s) {
        const std::vector<Frame *> frames = mixedTierFrames(s, 16);
        std::vector<Frame *> run;
        for (int lap = 0; lap < 6; ++lap)
            run.insert(run.end(), frames.begin(), frames.end());
        Stack *stack = &s;
        s.daemon.setBody([stack](Tick period) {
            stack->log();
            return period;
        });
        s.daemon.start(Tick{700});
        return run;
    };
    auto one = expectRunTwinsAgree(sweeps, Bytes{4096}, AccessType::Read);
    EXPECT_GE(one->seen.size(), 3u);
    EXPECT_EQ(activations(*one), 16u);
}

TEST(TouchEach, EmptyRunTouchesNothing)
{
    const RunSetup empty = [](Stack &s) {
        mixedTierFrames(s, 3);
        return std::vector<Frame *>{};
    };
    auto one = expectRunTwinsAgree(empty, Bytes{64}, AccessType::Write);
    EXPECT_EQ(one->machine.now(), Tick{});
    EXPECT_EQ(one->machine.userRefs(), 0u);
}

} // namespace
} // namespace kloc
