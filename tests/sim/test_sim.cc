/**
 * @file
 * Simulation-layer tests: virtual clock, event queue ordering,
 * cancellation and re-entrancy, the Daemon's restart and stop rules,
 * memory timing model, and Machine accounting.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "base/clock.hh"
#include "sim/daemon.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "sim/memory_model.hh"
#include "support/lambda_events.hh"

namespace kloc {
namespace {

TEST(VirtualClock, AdvancesMonotonically)
{
    VirtualClock clock;
    EXPECT_EQ(clock.now(), 0);
    clock.advance(Tick{100});
    clock.advance(Tick{0});
    EXPECT_EQ(clock.now(), 100);
    clock.reset();
    EXPECT_EQ(clock.now(), 0);
}

TEST(EventQueue, RunsInDeadlineOrder)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    later.at(Tick{30}, [&] { order.push_back(3); });
    later.at(Tick{10}, [&] { order.push_back(1); });
    later.at(Tick{20}, [&] { order.push_back(2); });
    EXPECT_EQ(events.size(), 3u);
    EXPECT_EQ(events.runDue(Tick{25}), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(events.runDue(Tick{100}), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        later.at(Tick{50}, [&order, i] { order.push_back(i); });
    events.runDue(Tick{50});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventSchedulingDueEventRunsInSameDrain)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    later.at(Tick{10}, [&] {
        order.push_back(1);
        later.at(Tick{10}, [&] { order.push_back(2); });
    });
    events.runDue(Tick{15});
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, FutureEventStaysQueued)
{
    EventQueue events;
    LambdaEvents later(events);
    int fired = 0;
    later.at(Tick{100}, [&] { ++fired; });
    EXPECT_EQ(events.runDue(Tick{99}), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(events.runDue(Tick{100}), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NothingDueRunsNothing)
{
    EventQueue events;
    LambdaEvents later(events);
    EXPECT_EQ(events.runDue(Tick{0}), 0u);
    EXPECT_EQ(events.runDue(Tick{1000}), 0u);
    EXPECT_EQ(events.size(), 0u);

    int fired = 0;
    later.at(Tick{100}, [&] { ++fired; });
    later.at(Tick{200}, [&] { ++fired; });
    EXPECT_EQ(events.runDue(Tick{0}), 0u);
    EXPECT_EQ(events.runDue(Tick{99}), 0u);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, ZeroChargeRunsEventDueNow)
{
    Machine machine(1, 1);
    LambdaEvents later(machine.events());
    machine.charge(Tick{50});
    int fired = 0;
    later.at(machine.now(), [&] { ++fired; });
    machine.charge(Tick{0});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(machine.now(), 50);
    EXPECT_TRUE(machine.events().empty());
}

TEST(EventQueue, EarlierEventScheduledMidDrainRunsBeforeLaterTop)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    later.at(Tick{10}, [&] {
        order.push_back(1);
        // Earlier than the remaining top (20) and already due.
        later.at(Tick{15}, [&] { order.push_back(2); });
    });
    later.at(Tick{20}, [&] { order.push_back(3); });
    later.at(Tick{40}, [&] { order.push_back(4); });
    EXPECT_EQ(events.runDue(Tick{30}), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(events.size(), 1u);
}

TEST(EventQueue, CancelUnlinksAPendingEvent)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    later.at(Tick{10}, [&] { order.push_back(1); });
    Event &doomed = later.at(Tick{20}, [&] { order.push_back(2); });
    later.at(Tick{30}, [&] { order.push_back(3); });
    events.cancel(doomed);
    EXPECT_FALSE(doomed.pending());
    EXPECT_EQ(events.size(), 2u);
    events.cancel(doomed);  // not pending: a no-op
    EXPECT_EQ(events.runDue(Tick{100}), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelFromInsideAnotherEvent)
{
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    Event *tie = nullptr;
    Event *self = nullptr;
    self = &later.at(Tick{10}, [&] {
        order.push_back(1);
        events.cancel(*tie);
        events.cancel(*self);  // the running event: a no-op
    });
    tie = &later.at(Tick{10}, [&] { order.push_back(2); });
    later.at(Tick{20}, [&] { order.push_back(3); });
    EXPECT_EQ(events.runDue(Tick{100}), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, DestroyedPendingEventNeverRuns)
{
    EventQueue events;
    int fired = 0;
    {
        LambdaEvents later(events);
        later.at(Tick{10}, [&] { ++fired; });
        later.at(Tick{20}, [&] { ++fired; });
        EXPECT_EQ(events.size(), 2u);
    }
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.runDue(Tick{100}), 0u);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, NextDeadlineStaysExactAcrossCancels)
{
    EventQueue events;
    LambdaEvents later(events);
    const Tick never{std::numeric_limits<int64_t>::max()};
    EXPECT_EQ(events.nextDeadline(), never);
    Event &first = later.at(Tick{10}, [] {});
    Event &tie = later.at(Tick{10}, [] {});
    Event &last = later.at(Tick{30}, [] {});
    EXPECT_EQ(events.nextDeadline(), 10);
    events.cancel(first);
    EXPECT_EQ(events.nextDeadline(), 10);  // the tie is still pending
    events.cancel(tie);
    EXPECT_EQ(events.nextDeadline(), 30);
    EXPECT_EQ(events.runDue(Tick{29}), 0u);
    events.cancel(last);
    EXPECT_EQ(events.nextDeadline(), never);
    EXPECT_EQ(events.runDue(Tick{100}), 0u);
}

TEST(EventQueue, RescheduledTieRunsAfterEarlierSchedules)
{
    // seq is taken at schedule time: a node cancelled and scheduled
    // again at the same deadline runs after nodes scheduled before
    // its second schedule, as a freshly queued event would.
    EventQueue events;
    LambdaEvents later(events);
    std::vector<int> order;
    Event &moved = later.at(Tick{50}, [&] { order.push_back(0); });
    later.at(Tick{50}, [&] { order.push_back(1); });
    events.cancel(moved);
    events.schedule(moved, Tick{50});
    later.at(Tick{50}, [&] { order.push_back(2); });
    events.runDue(Tick{50});
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

/** Charge one tick at a time up to @p until, so every event runs at
 *  its own deadline rather than at the end of one long charge. */
void
chargeUntil(Machine &machine, int64_t until)
{
    while (machine.now() < until)
        machine.charge(Tick{1});
}

/** A daemon whose body records the time of every run. */
struct TickLog
{
    explicit TickLog(Machine &machine) : machine(machine), daemon(machine)
    {
        daemon.setBody([this](Tick period) {
            runs.push_back(this->machine.now().value());
            return period;
        });
    }

    Machine &machine;
    std::vector<int64_t> runs;
    Daemon daemon;
};

TEST(Daemon, RunsEveryPeriodAfterStart)
{
    Machine machine(1, 1);
    TickLog log(machine);
    log.daemon.start(Tick{10});
    log.daemon.start(Tick{3});  // running: ignored
    chargeUntil(machine, 35);
    EXPECT_EQ(log.runs, (std::vector<int64_t>{10, 20, 30}));
    EXPECT_TRUE(log.daemon.running());
}

TEST(Daemon, RestartWithinAPeriodRunsOneChain)
{
    // The run armed before stop() stays queued for t=10 but must not
    // run beside the chain the restart arms for t=15.
    Machine machine(1, 1);
    TickLog log(machine);
    log.daemon.start(Tick{10});
    chargeUntil(machine, 5);
    log.daemon.stop();
    EXPECT_FALSE(log.daemon.running());
    log.daemon.start(Tick{10});
    chargeUntil(machine, 45);
    EXPECT_EQ(log.runs, (std::vector<int64_t>{15, 25, 35, 45}));
}

TEST(Daemon, StopRestartInsideTheBodyRunsOneChain)
{
    Machine machine(1, 1);
    std::vector<int64_t> runs;
    Daemon daemon(machine);
    daemon.setBody([&](Tick period) {
        runs.push_back(machine.now().value());
        if (runs.size() == 1) {
            daemon.stop();
            daemon.start(Tick{4});
        }
        return period;
    });
    daemon.start(Tick{10});
    chargeUntil(machine, 30);
    // The run at t=10 restarts with period 4: 14, 18, ... The stopped
    // chain's own reschedule for t=20 never happens.
    EXPECT_EQ(runs, (std::vector<int64_t>{10, 14, 18, 22, 26, 30}));
}

TEST(Daemon, BodyChoosesTheNextDelay)
{
    Machine machine(1, 1);
    std::vector<int64_t> runs;
    Daemon daemon(machine);
    daemon.setBody([&](Tick period) {
        runs.push_back(machine.now().value());
        return runs.size() % 2 == 1 ? 2 * period : period;
    });
    daemon.start(Tick{10});
    chargeUntil(machine, 100);
    EXPECT_EQ(runs, (std::vector<int64_t>{10, 30, 40, 60, 70, 90, 100}));
}

TEST(Daemon, BodyMayStopItself)
{
    Machine machine(1, 1);
    int runs = 0;
    Daemon daemon(machine);
    daemon.setBody([&](Tick period) {
        if (++runs == 3)
            daemon.stop();
        return period;
    });
    daemon.start(Tick{10});
    chargeUntil(machine, 100);
    EXPECT_EQ(runs, 3);
    EXPECT_FALSE(daemon.running());
    EXPECT_TRUE(machine.events().empty()) << "a stopped chain rearmed";
    daemon.start(Tick{10});  // a stopped daemon starts again
    machine.charge(Tick{10});
    EXPECT_EQ(runs, 4);
}

TEST(Daemon, DestroyedOwnerCancelsItsPendingRun)
{
    // Destroying the daemon unlinks its pending run, so charging past
    // it touches nothing of the freed owner (an ASan build reports a
    // use after free).
    Machine machine(1, 1);
    auto log = std::make_unique<TickLog>(machine);
    log->daemon.start(Tick{10});
    chargeUntil(machine, 15);
    ASSERT_EQ(log->runs.size(), 1u);
    EXPECT_EQ(machine.events().size(), 1u);
    log.reset();
    EXPECT_TRUE(machine.events().empty());
    machine.charge(Tick{20});
    EXPECT_TRUE(machine.events().empty());
}

/** A member whose destructor charges time, as freeing frames does. */
struct ChargesOnDestruction
{
    explicit ChargesOnDestruction(Machine &machine) : machine(machine) {}
    ~ChargesOnDestruction() { machine.charge(Tick{100}); }

    Machine &machine;
};

/**
 * An owner that declares its daemon first, so the daemon outlives
 * every other member. `runs` goes before `charger`, whose destructor
 * then charges past the next run; the owner stops the daemon in its
 * destructor body, so that run never happens.
 */
struct DaemonFirstOwner
{
    explicit DaemonFirstOwner(Machine &machine)
        : daemon(machine), charger(machine),
          runs(std::make_unique<std::vector<int64_t>>())
    {
        daemon.setBody([this, &machine](Tick period) {
            runs->push_back(machine.now().value());
            return period;
        });
    }
    ~DaemonFirstOwner() { daemon.stop(); }

    Daemon daemon;
    ChargesOnDestruction charger;
    std::unique_ptr<std::vector<int64_t>> runs;
};

TEST(Daemon, OwnerThatDeclaresItsDaemonFirstStopsItBeforeMembersCharge)
{
    // A run during the charger's destructor would write to the freed
    // `runs` (an ASan build reports it).
    Machine machine(1, 1);
    auto owner = std::make_unique<DaemonFirstOwner>(machine);
    owner->daemon.start(Tick{10});
    chargeUntil(machine, 15);
    ASSERT_EQ(owner->runs->size(), 1u);
    owner.reset();
    EXPECT_EQ(machine.now(), 115);
    EXPECT_TRUE(machine.events().empty());
}

TEST(MemoryModel, AccessCostScalesWithSizeAndTier)
{
    MemoryModel model;
    TierSpec fast;
    fast.name = "fast";
    fast.capacity = kMiB;
    fast.readLatency = Tick{80};
    fast.writeLatency = Tick{80};
    fast.readBandwidth = 30ULL * 1000 * kMiB;
    fast.writeBandwidth = 30ULL * 1000 * kMiB;
    const TierId f = model.addTier(fast);

    TierSpec slow = fast;
    slow.name = "slow";
    slow.readBandwidth /= 8;
    slow.writeBandwidth /= 8;
    const TierId s = model.addTier(slow);

    const Tick f_cost = model.rawCost(f, kPageSize, AccessType::Read, 0);
    const Tick s_cost = model.rawCost(s, kPageSize, AccessType::Read, 0);
    EXPECT_GT(s_cost, f_cost * 3);
    EXPECT_GT(model.rawCost(f, 64 * kKiB, AccessType::Read, 0), f_cost);
}

TEST(MemoryModel, LlcFilteringReducesExpectedCost)
{
    MemoryModel model;
    TierSpec spec;
    spec.name = "t";
    spec.capacity = kMiB;
    spec.readLatency = Tick{100};
    spec.writeLatency = Tick{100};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId t = model.addTier(spec);
    const Tick raw = model.accessCost(t, Bytes{4096}, AccessType::Read, 0);
    model.setLlcHitFraction(0.5);
    const Tick filtered = model.accessCost(t, Bytes{4096}, AccessType::Read, 0);
    EXPECT_LT(filtered, raw);
    EXPECT_GT(filtered, raw / 3);
}

TEST(MemoryModel, RemotePenaltyAndInterference)
{
    MemoryModel model;
    TierSpec spec;
    spec.name = "s0";
    spec.capacity = kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    spec.socket = 0;
    const TierId t = model.addTier(spec);

    const Tick local = model.rawCost(t, Bytes{64}, AccessType::Read, 0);
    const Tick remote = model.rawCost(t, Bytes{64}, AccessType::Read, 1);
    EXPECT_GT(remote, local);

    model.setInterference(0, 2.0);
    const Tick loaded = model.rawCost(t, Bytes{64}, AccessType::Read, 0);
    EXPECT_NEAR(static_cast<double>(loaded),
                2.0 * static_cast<double>(local), 2.0);
    model.clearInterference();
    EXPECT_EQ(model.rawCost(t, Bytes{64}, AccessType::Read, 0), local);
}

TEST(MemoryModel, PageCostTableTracksEveryMutator)
{
    MemoryModel model;
    TierSpec dram;
    dram.name = "dram";
    dram.capacity = kMiB;
    dram.readLatency = Tick{81};
    dram.writeLatency = Tick{93};
    dram.readBandwidth = 7 * kGiB;
    dram.writeBandwidth = 3 * kGiB;
    dram.socket = 0;
    model.addTier(dram);
    TierSpec pmem = dram;
    pmem.name = "pmem";
    pmem.readLatency = Tick{305};
    pmem.writeLatency = Tick{391};
    pmem.readBandwidth = 5 * kGiB;
    pmem.writeBandwidth = kGiB;
    pmem.socket = 1;
    model.addTier(pmem);

    // Every (tier, type, socket) the table holds, remote sockets
    // included, plus a socket past it (formula fallback).
    auto expect_exact = [&](const char *when) {
        for (TierId t{0}; t.value() < static_cast<int>(model.tierCount());
             ++t) {
            for (const AccessType type :
                 {AccessType::Read, AccessType::Write}) {
                for (int socket = 0; socket < 4; ++socket) {
                    EXPECT_EQ(model.accessCost(t, kPageSize, type, socket),
                              model.computeAccessCost(t, kPageSize, type,
                                                      socket))
                        << when << ": tier " << t.value() << " type "
                        << static_cast<int>(type) << " socket " << socket;
                }
            }
        }
    };
    const TierId p{1};
    const auto page_cost = [&] {
        return model.accessCost(p, kPageSize, AccessType::Write, 0);
    };

    expect_exact("initial");
    Tick before = page_cost();
    model.setInterference(1, 2.5);
    EXPECT_NE(page_cost(), before);
    expect_exact("interference on");
    before = page_cost();
    model.clearInterference();
    EXPECT_NE(page_cost(), before);
    expect_exact("interference off");
    before = page_cost();
    model.setLlcHitFraction(0.37);
    EXPECT_NE(page_cost(), before);
    expect_exact("llc fraction");
    before = page_cost();
    model.setRemotePenalty(Tick{117});
    EXPECT_NE(page_cost(), before);
    expect_exact("remote penalty");

    TierSpec late = dram;
    late.name = "late";
    late.readLatency = Tick{211};
    late.socket = 2;
    const TierId l = model.addTier(late);
    EXPECT_EQ(model.tierCount(), 3u);
    expect_exact("tier added late");
    EXPECT_GT(model.accessCost(l, kPageSize, AccessType::Read, 0),
              model.accessCost(l, kPageSize, AccessType::Read, 2));

    // Other sizes take the formula, not a page's cost.
    const Bytes line{64};
    EXPECT_EQ(model.accessCost(p, line, AccessType::Read, 0),
              model.computeAccessCost(p, line, AccessType::Read, 0));
    EXPECT_LT(model.accessCost(p, line, AccessType::Read, 0),
              model.accessCost(p, kPageSize, AccessType::Read, 0));
}

TEST(Machine, SocketTopology)
{
    Machine machine(16, 2);
    EXPECT_EQ(machine.cpuCount(), 16u);
    EXPECT_EQ(machine.socketCount(), 2u);
    EXPECT_EQ(machine.socketOf(0), 0);
    EXPECT_EQ(machine.socketOf(7), 0);
    EXPECT_EQ(machine.socketOf(8), 1);
    EXPECT_EQ(machine.socketOf(15), 1);
    machine.setCurrentCpu(9);
    EXPECT_EQ(machine.currentSocket(), 1);
}

TEST(Machine, ChargeRunsDueEvents)
{
    Machine machine(1, 1);
    LambdaEvents later(machine.events());
    int fired = 0;
    later.at(Tick{500}, [&] { ++fired; });
    machine.charge(Tick{499});
    EXPECT_EQ(fired, 0);
    machine.charge(Tick{1});
    EXPECT_EQ(fired, 1);
}

TEST(Machine, CpuWorkDividesByParallelism)
{
    Machine machine(4, 1);
    machine.setCpuParallelism(4);
    const Tick start = machine.now();
    machine.cpuWork(Tick{400});
    EXPECT_EQ(machine.now() - start, 100);
    machine.setCpuParallelism(1);
    machine.cpuWork(Tick{400});
    EXPECT_EQ(machine.now() - start, 500);
}

TEST(Machine, RefAccountingSplitsDomains)
{
    Machine machine(1, 1);
    TierSpec spec;
    spec.name = "t";
    spec.capacity = kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = kGiB;
    spec.writeBandwidth = kGiB;
    const TierId t = machine.memModel().addTier(spec);
    machine.access(t, Bytes{4096}, AccessType::Read, RefDomain::Kernel);
    machine.access(t, Bytes{4096}, AccessType::Write, RefDomain::User);
    machine.access(t, Bytes{64}, AccessType::Read, RefDomain::Kernel);
    EXPECT_EQ(machine.kernelRefs(), 2u);
    EXPECT_EQ(machine.userRefs(), 1u);
    EXPECT_GT(machine.kernelRefTicks(), 0);
    EXPECT_GT(machine.userRefTicks(), 0);
    machine.reset();
    EXPECT_EQ(machine.kernelRefs(), 0u);
    EXPECT_EQ(machine.now(), 0);
}

} // namespace
} // namespace kloc
