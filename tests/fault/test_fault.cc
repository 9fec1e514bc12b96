/**
 * @file
 * Unit tests for the fault-injection subsystem and the recovery
 * machinery it exercises: spec parsing, injector determinism, device
 * error/timeout retry in the block layer, migration retry/backoff/
 * abandonment, tier offlining with drain, and journal crash-replay.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "fs/block_layer.hh"
#include "fs/device.hh"
#include "fs/journal.hh"
#include "fs/objects.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

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

// ---------------------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesAllRuleKindsAndTierEvents)
{
    const std::string text =
        "# comment line\n"
        "seed 42\n"
        "\n"
        "device_write prob 0.25 max 5\n"
        "device_read period 50\n"
        "device_timeout oneshot 3\n"
        "migration_no_space prob 0.5\n"
        "journal_commit_crash oneshot 1\n"
        "tier_offline at 5000000 tier 1\n"
        "tier_online at 9000000 tier 1\n";
    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse(text, spec, &err)) << err;
    EXPECT_TRUE(spec.armed());
    EXPECT_EQ(spec.seed, 42u);

    const auto &write = spec.rules[unsigned(FaultSite::DeviceWrite)];
    EXPECT_EQ(write.mode, FaultRule::Mode::Probability);
    EXPECT_DOUBLE_EQ(write.probability, 0.25);
    EXPECT_EQ(write.maxFires, 5u);

    const auto &read = spec.rules[unsigned(FaultSite::DeviceRead)];
    EXPECT_EQ(read.mode, FaultRule::Mode::Period);
    EXPECT_EQ(read.period, 50u);

    const auto &timeout = spec.rules[unsigned(FaultSite::DeviceTimeout)];
    EXPECT_EQ(timeout.mode, FaultRule::Mode::OneShot);
    EXPECT_EQ(timeout.oneshot, 3u);

    ASSERT_EQ(spec.tierEvents.size(), 2u);
    EXPECT_EQ(spec.tierEvents[0].at, 5000000);
    EXPECT_EQ(spec.tierEvents[0].tier, 1);
    EXPECT_TRUE(spec.tierEvents[0].offline);
    EXPECT_FALSE(spec.tierEvents[1].offline);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(FaultSpec::parse("not_a_site prob 0.5\n", spec, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FaultSpec::parse("device_read warble 3\n", spec, &err));
    EXPECT_FALSE(FaultSpec::parse("device_read prob 1.5\n", spec, &err));
    EXPECT_FALSE(FaultSpec::parse("device_read period 0\n", spec, &err));
    EXPECT_FALSE(FaultSpec::parse("tier_offline at 5 socket 1\n", spec,
                                  &err));
    EXPECT_FALSE(FaultSpec::parse("seed\n", spec, &err));
}

TEST(FaultSpec, EmptySpecIsUnarmed)
{
    FaultSpec spec;
    std::string err;
    EXPECT_TRUE(FaultSpec::parse("# nothing here\n\n", spec, &err)) << err;
    EXPECT_FALSE(spec.armed());
}

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

struct InjectorTest : ::testing::Test
{
    Machine machine{2, 1};

    FaultInjector &faults() { return machine.faults(); }

    void
    configure(const std::string &text)
    {
        FaultSpec spec;
        std::string err;
        ASSERT_TRUE(FaultSpec::parse(text, spec, &err)) << err;
        faults().configure(spec);
    }
};

TEST_F(InjectorTest, UnconfiguredNeverFires)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(faults().shouldFire(FaultSite::DeviceRead));
    EXPECT_EQ(faults().totalFires(), 0u);
    // Fast path: consults are not even counted while unarmed.
    EXPECT_EQ(faults().siteStats(FaultSite::DeviceRead).consults, 0u);
}

TEST_F(InjectorTest, PeriodFiresEveryNth)
{
    configure("device_read period 4\n");
    std::vector<bool> fires;
    for (int i = 0; i < 12; ++i)
        fires.push_back(faults().shouldFire(FaultSite::DeviceRead));
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(fires[size_t(i)], (i + 1) % 4 == 0) << "consult " << i;
    EXPECT_EQ(faults().siteStats(FaultSite::DeviceRead).fires, 3u);
}

TEST_F(InjectorTest, OneShotFiresExactlyOnce)
{
    configure("device_write oneshot 3\n");
    int fired_at = -1;
    for (int i = 0; i < 10; ++i) {
        if (faults().shouldFire(FaultSite::DeviceWrite)) {
            EXPECT_EQ(fired_at, -1) << "fired twice";
            fired_at = i;
        }
    }
    EXPECT_EQ(fired_at, 2);  // third consult, zero-indexed
}

TEST_F(InjectorTest, MaxFiresCapsProbabilityRule)
{
    configure("device_read prob 1.0 max 2\n");
    int fires = 0;
    for (int i = 0; i < 10; ++i)
        fires += faults().shouldFire(FaultSite::DeviceRead) ? 1 : 0;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(faults().totalFires(), 2u);
}

TEST_F(InjectorTest, SameSeedSameSequence)
{
    const std::string spec = "seed 99\ndevice_read prob 0.3\n";
    auto sequence = [&]() {
        configure(spec);
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(faults().shouldFire(FaultSite::DeviceRead));
        return fires;
    };
    const auto first = sequence();
    const auto second = sequence();
    EXPECT_EQ(first, second);
}

TEST_F(InjectorTest, DifferentSeedDifferentSequence)
{
    auto sequence = [&](uint64_t seed) {
        configure("seed " + std::to_string(seed) +
                  "\ndevice_read prob 0.3\n");
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(faults().shouldFire(FaultSite::DeviceRead));
        return fires;
    };
    EXPECT_NE(sequence(1), sequence(2));
}

TEST_F(InjectorTest, SitesAreIndependent)
{
    configure("seed 5\ndevice_read prob 0.5\ndevice_write prob 0.5\n");
    // Interleaving consults of one site must not perturb the other:
    // record writes alone, then re-configure and interleave reads.
    std::vector<bool> writes_alone;
    for (int i = 0; i < 50; ++i)
        writes_alone.push_back(faults().shouldFire(FaultSite::DeviceWrite));
    configure("seed 5\ndevice_read prob 0.5\ndevice_write prob 0.5\n");
    std::vector<bool> writes_mixed;
    for (int i = 0; i < 50; ++i) {
        faults().shouldFire(FaultSite::DeviceRead);
        writes_mixed.push_back(faults().shouldFire(FaultSite::DeviceWrite));
    }
    EXPECT_EQ(writes_alone, writes_mixed);
}

TEST_F(InjectorTest, FiresEmitTraceEvents)
{
    machine.tracer().setEnabled(true);
    configure("device_read oneshot 2\n");
    faults().shouldFire(FaultSite::DeviceRead);
    faults().shouldFire(FaultSite::DeviceRead);
    EXPECT_EQ(countEvents(machine.tracer(), TraceEventType::FaultInject),
              1u);
}

// ---------------------------------------------------------------------------
// Stack fixture (mirrors the golden-trace TraceStack)
// ---------------------------------------------------------------------------

struct FaultStack
{
    explicit FaultStack(uint64_t fast_pages = 256,
                        uint64_t slow_pages = 256)
        : machine(2, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = fast_pages * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = slow_pages * kPageSize;
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{300};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 2 * kGiB;
        slow = tiers.addTier(spec);

        placement = std::make_unique<StaticPlacement>(
            TierPreference{fast, slow},
            TierPreference{fast, slow});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fast, slow});

        machine.tracer().setEnabled(true);
        checker = std::make_unique<InvariantChecker>(machine.tracer(),
                                                     /*strict=*/true);
    }

    void
    configureFaults(const std::string &text)
    {
        FaultSpec spec;
        std::string err;
        ASSERT_TRUE(FaultSpec::parse(text, spec, &err)) << err;
        machine.faults().configure(spec);
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<StaticPlacement> placement;
    std::unique_ptr<InvariantChecker> checker;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

// ---------------------------------------------------------------------------
// Block layer retry/backoff
// ---------------------------------------------------------------------------

TEST(BlockLayerFaults, TransientErrorRetriedToSuccess)
{
    FaultStack s;
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);
    s.configureFaults("device_write oneshot 1\n");

    const Tick before = s.machine.now();
    const IoStatus status = block.submit(nullptr, true, 0, kPageSize,
                                         /*write=*/true,
                                         /*foreground=*/true);
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(block.bioRetries(), 1u);
    EXPECT_EQ(block.bioErrors(), 0u);
    EXPECT_EQ(device.ioErrors(), 1u);
    // The retry backoff and the error-detection latency were charged.
    EXPECT_GT(s.machine.now() - before, BlockLayer::kRetryBackoffBase);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::BioRetry),
              1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
}

TEST(BlockLayerFaults, PersistentErrorExhaustsRetriesAndUnpins)
{
    FaultStack s;
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);
    s.configureFaults("device_write prob 1.0\n");

    const IoStatus status = block.submit(nullptr, true, 0, kPageSize,
                                         /*write=*/true,
                                         /*foreground=*/true);
    EXPECT_EQ(status, IoStatus::Error);
    EXPECT_EQ(block.bioErrors(), 1u);
    EXPECT_EQ(block.bioRetries(),
              uint64_t(BlockLayer::kMaxRetries));
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::BioError),
              1u);
    // The bio completed (failed) and released its frame pin: the
    // frame is free to migrate or be reclaimed.
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
}

TEST(BlockLayerFaults, TimeoutIsRetryableAndCharged)
{
    FaultStack s;
    BlockDevice::Config config;
    BlockDevice device(s.machine, config);
    BlockLayer block(s.heap, &s.kloc, device);
    s.configureFaults("device_timeout oneshot 1\n");

    const Tick before = s.machine.now();
    const IoStatus status = block.submit(nullptr, true, 0, kPageSize,
                                         /*write=*/false,
                                         /*foreground=*/true);
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(device.timeouts(), 1u);
    // The timed-out attempt burned the whole watchdog window.
    EXPECT_GT(s.machine.now() - before, config.timeoutLatency);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(BlockLayerFaults, ReadAndWriteSitesAreDistinct)
{
    FaultStack s;
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);
    s.configureFaults("device_read prob 1.0\n");

    // Writes are unaffected by a read-error rule.
    EXPECT_EQ(block.submit(nullptr, true, 0, kPageSize, true, true),
              IoStatus::Ok);
    EXPECT_EQ(block.submit(nullptr, true, 512, kPageSize, false, true),
              IoStatus::Error);
}

// ---------------------------------------------------------------------------
// Migration retry / abandonment
// ---------------------------------------------------------------------------

TEST(MigrationFaults, TransientNoSpaceRetriedToSuccess)
{
    FaultStack s;
    s.configureFaults("migration_no_space oneshot 1\n");

    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    EXPECT_TRUE(s.migrator.migrateOne(frame, s.slow));
    EXPECT_EQ(frame->tier, s.slow);
    EXPECT_EQ(s.migrator.stats().noSpaceRetries, 1u);
    EXPECT_EQ(s.migrator.stats().failedNoSpace, 0u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::MigRetry),
              1u);
    s.tiers.free(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(MigrationFaults, ExhaustedDestinationAbandonsAndRequeues)
{
    FaultStack s(/*fast_pages=*/256, /*slow_pages=*/4);
    // Fill the slow tier for real: every retry fails, then abandon.
    std::vector<Frame *> fillers;
    while (Frame *f = s.tiers.alloc(0, ObjClass::App, true, {s.slow}))
        fillers.push_back(f);

    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    // A younger allocation leads the inactive list, so the requeue
    // below observably rotates the abandoned frame back to the front.
    Frame *younger = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(younger, nullptr);
    EXPECT_NE(s.tiers.tier(s.fast).inactiveList().front(), frame);
    EXPECT_FALSE(s.migrator.migrateOne(frame, s.slow));
    EXPECT_EQ(frame->tier, s.fast);  // degraded gracefully: stays put
    EXPECT_EQ(s.migrator.stats().failedNoSpace, 1u);
    EXPECT_EQ(s.migrator.stats().noSpaceRetries,
              uint64_t(MigrationEngine::kMaxNoSpaceRetries));
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::MigAbandon),
              1u);
    // Abandonment requeued the frame hot: it leads its list again.
    EXPECT_EQ(s.tiers.tier(s.fast).inactiveList().front(), frame);

    s.tiers.free(frame);
    s.tiers.free(younger);
    for (Frame *f : fillers)
        s.tiers.free(f);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(MigrationFaults, BatchFailsFastAfterFirstAbandon)
{
    FaultStack s(/*fast_pages=*/256, /*slow_pages=*/4);
    std::vector<Frame *> fillers;
    while (Frame *f = s.tiers.alloc(0, ObjClass::App, true, {s.slow}))
        fillers.push_back(f);

    std::vector<FrameRef> batch;
    std::vector<Frame *> frames;
    for (int i = 0; i < 4; ++i) {
        Frame *f = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
        ASSERT_NE(f, nullptr);
        frames.push_back(f);
        batch.emplace_back(f);
    }
    EXPECT_EQ(s.migrator.migrate(batch, s.slow), 0u);
    EXPECT_EQ(s.migrator.stats().failedNoSpace, 4u);
    // Only the first abandon paid the backoff retries; the rest of
    // the batch failed fast against the proven-full destination.
    EXPECT_EQ(s.migrator.stats().noSpaceRetries,
              uint64_t(MigrationEngine::kMaxNoSpaceRetries));

    for (Frame *f : frames)
        s.tiers.free(f);
    for (Frame *f : fillers)
        s.tiers.free(f);
}

TEST(MigrationFaults, PinnedFrameCountedPerReason)
{
    FaultStack s;
    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    ++frame->pinCount;
    EXPECT_FALSE(s.migrator.migrateOne(frame, s.slow));
    EXPECT_EQ(s.migrator.stats().failedPinned, 1u);
    EXPECT_EQ(s.migrator.stats().failedNoSpace, 0u);
    --frame->pinCount;
    s.tiers.free(frame);
}

// ---------------------------------------------------------------------------
// Tier offline / online
// ---------------------------------------------------------------------------

TEST(TierOffline, DrainMovesResidentFrames)
{
    FaultStack s;
    std::vector<Frame *> frames;
    for (int i = 0; i < 8; ++i) {
        Frame *f = s.tiers.alloc(0, ObjClass::PageCache, true, {s.slow});
        ASSERT_NE(f, nullptr);
        frames.push_back(f);
    }

    const uint64_t stranded = s.migrator.offlineTier(s.slow);
    EXPECT_EQ(stranded, 0u);
    EXPECT_FALSE(s.tiers.tier(s.slow).online());
    for (Frame *f : frames)
        EXPECT_EQ(f->tier, s.fast);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::TierOffline),
              1u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::TierDrain),
              1u);

    for (Frame *f : frames)
        s.tiers.free(f);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierOffline, AllocationsRedirectWhileOffline)
{
    FaultStack s;
    s.migrator.offlineTier(s.slow);
    // Preference names the offline tier first; allocation must skip it.
    Frame *frame = s.tiers.alloc(0, ObjClass::App, true, {s.slow, s.fast});
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->tier, s.fast);
    s.tiers.free(frame);

    s.migrator.onlineTier(s.slow);
    frame = s.tiers.alloc(0, ObjClass::App, true, {s.slow, s.fast});
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->tier, s.slow);
    s.tiers.free(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierOffline, PinnedFrameStrandedThenRecoverable)
{
    FaultStack s;
    Frame *pinned = s.tiers.alloc(0, ObjClass::PageCache, true, {s.slow});
    Frame *movable = s.tiers.alloc(0, ObjClass::PageCache, true, {s.slow});
    ASSERT_NE(pinned, nullptr);
    ASSERT_NE(movable, nullptr);
    ++pinned->pinCount;

    EXPECT_EQ(s.migrator.offlineTier(s.slow), 1u);
    EXPECT_EQ(pinned->tier, s.slow);   // stranded
    EXPECT_EQ(movable->tier, s.fast);  // drained
    EXPECT_GE(s.migrator.stats().failedPinned, 1u);

    // Once the pin drops the frame can be drained by hand.
    --pinned->pinCount;
    EXPECT_TRUE(s.migrator.migrateOne(pinned, s.fast));
    EXPECT_EQ(pinned->tier, s.fast);

    s.tiers.free(pinned);
    s.tiers.free(movable);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierOffline, ScheduledEventsFireAtTicks)
{
    FaultStack s;
    s.configureFaults("tier_offline at 1000000 tier 1\n"
                      "tier_online at 2000000 tier 1\n");
    s.migrator.scheduleTierEvents();

    EXPECT_TRUE(s.tiers.tier(s.slow).online());
    s.machine.charge(Tick{1100000});
    EXPECT_FALSE(s.tiers.tier(s.slow).online());
    s.machine.charge(Tick{1000000});
    EXPECT_TRUE(s.tiers.tier(s.slow).online());
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierOffline, DestroyedEngineCancelsItsPendingTierEvents)
{
    // The engine dies with a scheduled offline and a health drain
    // pending. Charging past both must run neither, and the health
    // ticks that follow must not tell it of the tier's recovery: each
    // would call into the freed engine (an ASan build reports it).
    Machine machine(2, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 256 * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    tiers.addTier(spec);
    spec.name = "slow";
    const TierId slow = tiers.addTier(spec);
    FaultSpec faults;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse("tier_offline at 1000000 tier 1\n", faults,
                                 &err))
        << err;
    machine.faults().configure(faults);

    auto migrator = std::make_unique<MigrationEngine>(machine, tiers, lru);
    migrator->scheduleTierEvents();
    for (int i = 0; i < 16; ++i)
        tiers.recordTierError(slow);
    ASSERT_EQ(tiers.health(slow), TierHealth::Failed);
    // The offline, the drain and the tier-health tick.
    EXPECT_EQ(machine.events().size(), 3u);
    migrator.reset();
    EXPECT_EQ(machine.events().size(), 1u);
    // Past the offline and through 40 health ticks: the score decays
    // back down, and Failed → Degraded → Healthy go unheard.
    for (int i = 0; i < 40; ++i)
        machine.charge(TierManager::kHealthTickPeriod);
    EXPECT_EQ(tiers.health(slow), TierHealth::Healthy);
    EXPECT_TRUE(tiers.tier(slow).online());
    // At rest, the health daemon stops.
    EXPECT_EQ(machine.events().size(), 0u);
}

// ---------------------------------------------------------------------------
// Journal crash & replay
// ---------------------------------------------------------------------------

struct JournalCrashTest : ::testing::Test
{
    JournalCrashTest()
        : device(s.machine, BlockDevice::Config{}),
          block(s.heap, &s.kloc, device),
          journal(s.heap, &s.kloc, block)
    {
        knode = s.kloc.mapKnode(7);
        s.kloc.markActive(knode);
    }

    void
    logSomeMetadata()
    {
        journal.logMetadata(knode, true, 7, 2 * kPageSize);
        ASSERT_GT(journal.liveRecords(), 0u);
    }

    FaultStack s;
    BlockDevice device;
    BlockLayer block;
    Journal journal;
    Knode *knode = nullptr;
};

TEST_F(JournalCrashTest, CrashBeforeWritesThenReplay)
{
    logSomeMetadata();
    s.configureFaults("journal_commit_crash oneshot 1\n");
    journal.commit(/*foreground=*/true);
    EXPECT_TRUE(journal.crashed());
    EXPECT_EQ(journal.committedTxs(), 0u);
    EXPECT_GT(journal.liveRecords(), 0u);  // nothing was lost

    // Next commit replays the crashed transaction first.
    journal.commit(/*foreground=*/true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.committedTxs(), 1u);
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(countEvents(s.machine.tracer(),
                          TraceEventType::JournalReplayEnd), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST_F(JournalCrashTest, CrashMidWriteThenReplay)
{
    logSomeMetadata();
    // Consult 1 = before writes; consult 2 = after the first batch.
    s.configureFaults("journal_commit_crash oneshot 2\n");
    journal.commit(/*foreground=*/true);
    EXPECT_TRUE(journal.crashed());
    EXPECT_GT(journal.liveRecords(), 0u);

    journal.commit(/*foreground=*/true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST_F(JournalCrashTest, CrashAfterWritesThenReplay)
{
    logSomeMetadata();
    // Consult 3 = after all batches (one page batch here), before the
    // in-memory transaction is released.
    s.configureFaults("journal_commit_crash oneshot 3\n");
    journal.commit(/*foreground=*/true);
    EXPECT_TRUE(journal.crashed());

    journal.commit(/*foreground=*/true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST_F(JournalCrashTest, NewMetadataAfterCrashJoinsRecoveredTx)
{
    logSomeMetadata();
    s.configureFaults("journal_commit_crash oneshot 1\n");
    journal.commit(true);
    ASSERT_TRUE(journal.crashed());

    // Metadata logged while crashed is recovered along with the tx.
    journal.logMetadata(knode, true, 7, kPageSize);
    journal.commit(true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(journal.committedTxs(), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST_F(JournalCrashTest, ReplayFailureStaysCrashedUntilDeviceHeals)
{
    logSomeMetadata();
    s.configureFaults("journal_commit_crash oneshot 1\n"
                      "device_write prob 1.0\n");
    journal.commit(true);
    ASSERT_TRUE(journal.crashed());

    // Replay attempt fails: the device still errors every write.
    journal.commit(true);
    EXPECT_TRUE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 0u);
    EXPECT_GT(journal.liveRecords(), 0u);

    // Device heals; the next commit replays successfully.
    s.machine.faults().clear();
    journal.commit(true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST_F(JournalCrashTest, WriteErrorAbortsCommitAndRetriesLater)
{
    logSomeMetadata();
    s.configureFaults("device_write prob 1.0\n");
    journal.commit(true);
    EXPECT_FALSE(journal.crashed());  // abort, not crash
    EXPECT_EQ(journal.commitAborts(), 1u);
    EXPECT_EQ(journal.committedTxs(), 0u);
    EXPECT_GT(journal.liveRecords(), 0u);
    EXPECT_EQ(countEvents(s.machine.tracer(),
                          TraceEventType::JournalCommitAbort), 1u);

    s.machine.faults().clear();
    journal.commit(true);
    EXPECT_EQ(journal.committedTxs(), 1u);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

// ---------------------------------------------------------------------------
// Pin-balance invariant rules (synthetic event streams)
// ---------------------------------------------------------------------------

struct PinChecker : ::testing::Test
{
    VirtualClock clock;
    Tracer tracer{clock};
    InvariantChecker checker{tracer, /*strict=*/true};

    TraceEvent
    make(TraceEventType type, uint64_t a = 0, uint64_t b = 0,
         uint64_t c = 0, uint64_t d = 0)
    {
        TraceEvent event;
        event.seq = seq++;
        event.tick = Tick{};
        event.type = type;
        event.args[0] = a;
        event.args[1] = b;
        event.args[2] = c;
        event.args[3] = d;
        return event;
    }

    uint64_t seq = 0;
};

TEST_F(PinChecker, BalancedPinUnpinIsClean)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePin, 0, 5));
    checker.consume(make(TraceEventType::FrameUnpin, 0, 5));
    checker.consume(make(TraceEventType::FrameFree, 0, 5, 0, 1));
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.outstandingPins(), 0u);
}

TEST_F(PinChecker, FreeWithOutstandingPinViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePin, 0, 5));
    checker.consume(make(TraceEventType::FrameFree, 0, 5, 0, 1));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PinChecker, UnpinWithoutPinViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameUnpin, 0, 5));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PinChecker, MigrationOfPinnedFrameViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePin, 0, 5));
    checker.consume(make(TraceEventType::MigStart, 0, 5, 1, 9));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PinChecker, OutstandingPinsCounted)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameAlloc, 0, 6, 0, 1));
    checker.consume(make(TraceEventType::FramePin, 0, 5));
    EXPECT_EQ(checker.outstandingPins(), 1u);
    checker.consume(make(TraceEventType::FrameUnpin, 0, 5));
    EXPECT_EQ(checker.outstandingPins(), 0u);
}

TEST_F(PinChecker, OfflineTierAllocationViolates)
{
    checker.consume(make(TraceEventType::TierOffline, 1));
    checker.consume(make(TraceEventType::FrameAlloc, 1, 5, 0, 1));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PinChecker, OfflineTierMigrationArrivalViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::TierOffline, 1));
    checker.consume(make(TraceEventType::MigStart, 0, 5, 1, 9));
    EXPECT_FALSE(checker.clean());
}

// ---------------------------------------------------------------------------
// FaultSpec parser diagnostics: every rejection names the line and
// the offending token, so a bad chaos spec is debuggable from the
// error string alone.
// ---------------------------------------------------------------------------

/** Parse expecting failure; return the diagnostic. */
std::string
diagnose(const std::string &text)
{
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(FaultSpec::parse(text, spec, &err)) << text;
    EXPECT_FALSE(err.empty()) << text;
    return err;
}

bool
mentions(const std::string &err, const std::string &needle)
{
    return err.find(needle) != std::string::npos;
}

TEST(FaultSpecDiagnostics, NamesTheFailingLine)
{
    const std::string err = diagnose("seed 1\n"
                                     "device_read period 50\n"
                                     "device_read warble 3\n");
    EXPECT_TRUE(mentions(err, "line 3")) << err;
    EXPECT_TRUE(mentions(err, "'warble'")) << err;
}

TEST(FaultSpecDiagnostics, UnknownSiteNamesToken)
{
    const std::string err = diagnose("not_a_site prob 0.5\n");
    EXPECT_TRUE(mentions(err, "line 1")) << err;
    EXPECT_TRUE(mentions(err, "unknown fault site 'not_a_site'")) << err;
}

TEST(FaultSpecDiagnostics, ProbabilityRangeNamesValue)
{
    const std::string err = diagnose("device_read prob 1.5\n");
    EXPECT_TRUE(mentions(err, "prob needs a value in [0,1]")) << err;
    EXPECT_TRUE(mentions(err, "'1.5'")) << err;
}

TEST(FaultSpecDiagnostics, ZeroPeriodRejected)
{
    const std::string err = diagnose("device_read period 0\n");
    EXPECT_TRUE(mentions(err, "period needs a positive count")) << err;
    EXPECT_TRUE(mentions(err, "'0'")) << err;
}

TEST(FaultSpecDiagnostics, ZeroOneshotRejected)
{
    const std::string err = diagnose("device_write oneshot 0\n");
    EXPECT_TRUE(mentions(err, "oneshot needs a positive consult"))
        << err;
}

TEST(FaultSpecDiagnostics, ZeroMaxRejected)
{
    const std::string err = diagnose("device_read period 2 max 0\n");
    EXPECT_TRUE(mentions(err, "max needs a positive count")) << err;
}

TEST(FaultSpecDiagnostics, TrailingTokensNamed)
{
    const std::string err = diagnose("device_read period 2 bogus\n");
    EXPECT_TRUE(mentions(err, "trailing tokens")) << err;
    EXPECT_TRUE(mentions(err, "'bogus'")) << err;
}

TEST(FaultSpecDiagnostics, MalformedSeed)
{
    EXPECT_TRUE(mentions(diagnose("seed x\n"), "expected 'seed <n>'"));
}

TEST(FaultSpecDiagnostics, MalformedTierEventEchoesLine)
{
    const std::string err = diagnose("tier_offline at 5 socket 1\n");
    EXPECT_TRUE(mentions(err, "tier_offline at <tick> tier <id>"))
        << err;
    EXPECT_TRUE(mentions(err, "socket")) << err;
}

TEST(FaultSpecDiagnostics, PoisonStormGrammarErrors)
{
    EXPECT_TRUE(mentions(diagnose("poison_storm at 5 tier 0\n"),
                         "poison_storm at <tick> tier <id> frames"));
    EXPECT_TRUE(mentions(
        diagnose("poison_storm at 5 tier 0 frames 0\n"),
        "frames needs a positive count"));
    EXPECT_TRUE(mentions(
        diagnose("poison_storm at 5 tier 0 frames 2 repeat 0 every 9\n"),
        "repeat needs a positive count"));
    EXPECT_TRUE(mentions(
        diagnose("poison_storm at 5 tier 0 frames 2 repeat 3 every 0\n"),
        "every needs a positive tick count"));
    const std::string err =
        diagnose("poison_storm at 5 tier 0 frames 2 repeat 3\n");
    EXPECT_TRUE(mentions(err, "trailing tokens")) << err;
    EXPECT_TRUE(mentions(err, "'repeat...")) << err;
}

TEST(FaultSpecDiagnostics, PoisonStormFullGrammarParses)
{
    FaultSpec spec;
    std::string err;
    ASSERT_TRUE(FaultSpec::parse(
        "poison_storm at 2000000 tier 1 frames 8 repeat 4 every 500000\n"
        "poison_storm at 7000000 tier 0 frames 2\n",
        spec, &err)) << err;
    EXPECT_TRUE(spec.armed());
    ASSERT_EQ(spec.poisonStorms.size(), 2u);
    EXPECT_EQ(spec.poisonStorms[0].at, Tick{2000000});
    EXPECT_EQ(spec.poisonStorms[0].tier, 1);
    EXPECT_EQ(spec.poisonStorms[0].frames, 8u);
    EXPECT_EQ(spec.poisonStorms[0].repeat, 4u);
    EXPECT_EQ(spec.poisonStorms[0].every, Tick{500000});
    EXPECT_EQ(spec.poisonStorms[1].frames, 2u);
    EXPECT_EQ(spec.poisonStorms[1].repeat, 1u);
}

// ---------------------------------------------------------------------------
// Hwpoison containment: the poisonFrame recovery ladder
// ---------------------------------------------------------------------------

TEST(PoisonLifecycle, PinnedFrameIsDataLossInPlace)
{
    FaultStack s;
    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    ++frame->pinCount;

    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Access));
    EXPECT_TRUE(frame->poisoned);
    EXPECT_EQ(frame->tier, s.fast);  // contained in place, not moved
    EXPECT_EQ(s.migrator.poisonStats().poisonedFrames, 1u);
    EXPECT_EQ(s.migrator.poisonStats().dataLoss, 1u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::FramePoison),
              1u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::DataLoss),
              1u);

    // Re-poisoning the same frame is idempotent: no second event.
    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Scan));
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::FramePoison),
              1u);

    --frame->pinCount;
    s.tiers.free(frame);
    // Freeing a poisoned frame quarantines its block instead of
    // returning it to the buddy allocator.
    EXPECT_EQ(countEvents(s.machine.tracer(),
                          TraceEventType::FrameQuarantine), 1u);
    EXPECT_EQ(s.tiers.quarantinedPages(), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, QuarantinedBlockNeverReallocated)
{
    FaultStack s(/*fast_pages=*/8, /*slow_pages=*/8);
    Frame *frame = s.tiers.alloc(0, ObjClass::App, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    const Pfn bad = frame->pfn;

    // No shadow, no reread hook: the poison is unrecoverable data
    // loss and the frame stays in place until its owner frees it.
    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Access));
    EXPECT_EQ(s.migrator.poisonStats().dataLoss, 1u);
    s.tiers.free(frame);
    ASSERT_EQ(s.tiers.quarantinedPages(), 1u);

    // Drain the whole tier: the quarantined pfn never comes back.
    std::vector<Frame *> all;
    while (Frame *f = s.tiers.alloc(0, ObjClass::App, true, {s.fast})) {
        EXPECT_NE(f->pfn, bad);
        all.push_back(f);
    }
    EXPECT_EQ(all.size(), 7u);  // 8 pages minus the quarantined one
    for (Frame *f : all)
        s.tiers.free(f);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, CleanShadowRecoversForFree)
{
    FaultStack s;
    Frame *frame = s.tiers.alloc(0, ObjClass::App, true, {s.slow});
    ASSERT_NE(frame, nullptr);

    // Transactional promotion leaves a clean slow-tier shadow behind.
    ASSERT_EQ(s.migrator.promoteTransactional({FrameRef(frame)}, s.fast,
                                              Tick{0}), 1u);
    ASSERT_TRUE(frame->hasShadow());
    ASSERT_TRUE(s.tiers.shadowClean(frame));
    const Pfn shadow_pfn = s.tiers.shadowOf(frame)->pfn;

    EXPECT_TRUE(s.migrator.poisonFrame(frame, PoisonOrigin::Access));
    // The frame re-adopted its shadow: back on slow, poison cleared,
    // the poisoned fast block quarantined.
    EXPECT_EQ(frame->tier, s.slow);
    EXPECT_EQ(frame->pfn, shadow_pfn);
    EXPECT_FALSE(frame->poisoned);
    EXPECT_FALSE(frame->hasShadow());
    EXPECT_EQ(s.migrator.poisonStats().recoveredShadow, 1u);
    EXPECT_EQ(s.migrator.poisonStats().dataLoss, 0u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::MemRecover),
              1u);
    EXPECT_EQ(s.tiers.quarantinedPages(), 1u);

    s.tiers.free(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, RereadHookRecoversPageCacheFrame)
{
    FaultStack s;
    s.migrator.setRereadHook(
        [](void *, Frame *) { return true; },
        [](void *, Frame *) { return true; },
        nullptr);
    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);

    EXPECT_TRUE(s.migrator.poisonFrame(frame, PoisonOrigin::Scan));
    // Evacuated off the poisoned block and re-read from the device.
    EXPECT_EQ(frame->tier, s.slow);
    EXPECT_FALSE(frame->poisoned);
    EXPECT_EQ(s.migrator.poisonStats().recoveredReread, 1u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::MemRecover),
              1u);
    EXPECT_EQ(s.tiers.quarantinedPages(), 1u);
    // The pin held across the device read was released.
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::FramePin),
              countEvents(s.machine.tracer(), TraceEventType::FrameUnpin));

    s.tiers.free(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
}

TEST(PoisonLifecycle, RereadFailureIsDataLoss)
{
    FaultStack s;
    s.migrator.setRereadHook(
        [](void *, Frame *) { return true; },
        [](void *, Frame *) { return false; },  // device read fails
        nullptr);
    Frame *frame = s.tiers.alloc(0, ObjClass::PageCache, true, {s.fast});
    ASSERT_NE(frame, nullptr);

    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Access));
    EXPECT_EQ(s.migrator.poisonStats().recoveredReread, 0u);
    EXPECT_EQ(s.migrator.poisonStats().dataLoss, 1u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::DataLoss),
              1u);

    s.tiers.free(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, NoShadowNoBackingIsDataLoss)
{
    FaultStack s;
    Frame *frame = s.tiers.alloc(0, ObjClass::App, true, {s.fast});
    ASSERT_NE(frame, nullptr);

    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Copy));
    EXPECT_TRUE(frame->poisoned);
    EXPECT_EQ(s.migrator.poisonStats().dataLoss, 1u);

    s.tiers.free(frame);
    EXPECT_EQ(s.tiers.quarantinedPages(), 1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, DataLostFrameNeverLeavesItsBlock)
{
    FaultStack s(/*fast_pages=*/8, /*slow_pages=*/8);
    Frame *frame = s.tiers.alloc(0, ObjClass::App, true, {s.fast});
    ASSERT_NE(frame, nullptr);
    const Pfn bad = frame->pfn;

    // No shadow, no reread hook: NoSource data loss, poisoned in place.
    EXPECT_FALSE(s.migrator.poisonFrame(frame, PoisonOrigin::Access));
    ASSERT_TRUE(frame->poisoned);

    // No move may free the bad block: single-frame, batch, and drain
    // all refuse, and each refusal is tallied.
    EXPECT_FALSE(s.migrator.migrateOne(frame, s.slow));
    EXPECT_EQ(s.migrator.migrate({FrameRef(frame)}, s.slow), 0u);
    EXPECT_EQ(s.migrator.offlineTier(s.fast), 1u) << "not stranded";
    EXPECT_EQ(frame->tier, s.fast);
    EXPECT_EQ(frame->pfn, bad);
    EXPECT_EQ(s.migrator.stats().failedPoisoned, 3u);
    EXPECT_EQ(s.migrator.stats().movedFrames, 0u);
    EXPECT_EQ(s.migrator.stats().attempts,
              s.migrator.stats().resolvedAttempts());
    s.migrator.onlineTier(s.fast);

    // Freed, the frame's block quarantines; the bad pfn never comes
    // back, however hard the tier is drained.
    s.tiers.free(frame);
    EXPECT_EQ(s.tiers.quarantinedPages(), 1u);
    std::vector<Frame *> all;
    while (Frame *f = s.tiers.alloc(0, ObjClass::App, true, {s.fast})) {
        EXPECT_NE(f->pfn, bad);
        all.push_back(f);
    }
    EXPECT_EQ(all.size(), 7u);
    for (Frame *f : all)
        s.tiers.free(f);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, StormBurstsFireOnSchedule)
{
    FaultStack s;
    std::vector<Frame *> frames;
    for (int i = 0; i < 8; ++i) {
        Frame *f = s.tiers.alloc(0, ObjClass::App, true, {s.fast});
        ASSERT_NE(f, nullptr);
        frames.push_back(f);
    }
    s.configureFaults(
        "poison_storm at 1000000 tier 0 frames 3 repeat 2 every 1000000\n");
    s.migrator.scheduleTierEvents();

    s.machine.charge(Tick{1100000});
    EXPECT_EQ(s.migrator.poisonStats().stormFrames, 3u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::PoisonStorm),
              1u);
    s.machine.charge(Tick{1000000});
    EXPECT_EQ(s.migrator.poisonStats().stormFrames, 6u);
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::PoisonStorm),
              2u);

    for (Frame *f : frames)
        s.tiers.free(f);
    EXPECT_EQ(s.tiers.quarantinedPages(), 6u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, StormOnMissingTierIsHarmless)
{
    FaultStack s;
    s.configureFaults("poison_storm at 1000 tier 9 frames 4\n");
    s.migrator.scheduleTierEvents();
    s.machine.charge(Tick{2000});
    EXPECT_EQ(s.migrator.poisonStats().stormFrames, 0u);
    // The burst still traces, reporting zero frames poisoned.
    EXPECT_EQ(countEvents(s.machine.tracer(), TraceEventType::PoisonStorm),
              1u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(PoisonLifecycle, DestroyedEngineLeavesArmedTouchesUnconsulted)
{
    // With frame_poison_access firing on every consult, a touch while
    // the engine lives is contained; once the engine is gone a touch
    // consults nothing, so it draws no fault RNG and calls no freed
    // engine (an ASan build would report that).
    Machine machine(2, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 256 * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId fast = tiers.addTier(spec);
    FaultSpec faults;
    std::string err;
    ASSERT_TRUE(
        FaultSpec::parse("frame_poison_access prob 1.0\n", faults, &err))
        << err;
    machine.faults().configure(faults);
    const FaultInjector::SiteStats &access =
        machine.faults().siteStats(FaultSite::FramePoisonAccess);

    Frame *contained = tiers.alloc(0, ObjClass::App, true, {fast});
    Frame *untouched = tiers.alloc(0, ObjClass::App, true, {fast});
    ASSERT_NE(contained, nullptr);
    ASSERT_NE(untouched, nullptr);
    auto migrator = std::make_unique<MigrationEngine>(machine, tiers, lru);
    mem.touch(contained, Bytes{64}, AccessType::Read);
    EXPECT_TRUE(contained->poisoned);
    EXPECT_EQ(migrator->poisonStats().poisonedFrames, 1u);
    EXPECT_EQ(access.consults, 1u);

    migrator.reset();
    mem.touch(untouched, Bytes{64}, AccessType::Read);
    EXPECT_EQ(access.consults, 1u);
    EXPECT_EQ(machine.faults().totalFires(), 1u);
    EXPECT_FALSE(untouched->poisoned);
    EXPECT_EQ(untouched->tier, fast);
    EXPECT_TRUE(untouched->referenced);
}

// ---------------------------------------------------------------------------
// Tier health state machine
// ---------------------------------------------------------------------------

TEST(TierHealthMachine, ErrorsDegradeThenFailThenAutoDrain)
{
    FaultStack s;
    Frame *resident = s.tiers.alloc(0, ObjClass::App, true, {s.slow});
    ASSERT_NE(resident, nullptr);

    // kDegradeScore / kErrorScore errors flip the tier to Degraded.
    for (int i = 0; i < 4; ++i)
        s.tiers.recordTierError(s.slow);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Degraded);
    EXPECT_GE(countEvents(s.machine.tracer(), TraceEventType::TierHealth),
              1u);

    // Degraded tiers sink to the back of any preference order.
    const TierPreference pref = s.tiers.preferHealthy({s.slow, s.fast});
    ASSERT_EQ(pref.size(), 2u);
    EXPECT_EQ(pref[0], s.fast);
    EXPECT_EQ(pref[1], s.slow);

    // Push on to Failed: the tier schedules its own offline drain.
    for (int i = 0; i < 12; ++i)
        s.tiers.recordTierError(s.slow);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Failed);
    s.machine.charge(Tick{1});
    EXPECT_FALSE(s.tiers.tier(s.slow).online());
    EXPECT_EQ(resident->tier, s.fast);  // drained off the failed tier

    // Idle decay walks the score back down; recovery re-onlines the
    // tier because health (not an operator) took it out. Each charge
    // dispatches one pending tick, so idle time comes in tick-sized
    // slices (as it does in any real run).
    for (int i = 0; i < 40; ++i)
        s.machine.charge(TierManager::kHealthTickPeriod);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Healthy);
    EXPECT_TRUE(s.tiers.tier(s.slow).online());

    s.tiers.free(resident);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierHealthMachine, DegradedRecoversWithoutOffline)
{
    FaultStack s;
    for (int i = 0; i < 4; ++i)
        s.tiers.recordTierError(s.slow);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Degraded);
    EXPECT_TRUE(s.tiers.tier(s.slow).online());  // degraded ≠ offline

    for (int i = 0; i < 40; ++i)
        s.machine.charge(TierManager::kHealthTickPeriod);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Healthy);
    EXPECT_EQ(s.tiers.healthScore(s.slow), 0u);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierHealthMachine, OperatorOfflineIsNotReadmittedByHealth)
{
    FaultStack s;
    s.migrator.offlineTier(s.slow);  // operator action, not health
    for (int i = 0; i < 16; ++i)
        s.tiers.recordTierError(s.slow);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Failed);

    // Health recovery must NOT online a tier an operator took out.
    for (int i = 0; i < 40; ++i)
        s.machine.charge(TierManager::kHealthTickPeriod);
    EXPECT_EQ(s.tiers.health(s.slow), TierHealth::Healthy);
    EXPECT_FALSE(s.tiers.tier(s.slow).online());

    s.migrator.onlineTier(s.slow);
    EXPECT_TRUE(s.tiers.tier(s.slow).online());
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(TierHealthMachine, TraceSeesTransitionsInOrder)
{
    FaultStack s;
    for (int i = 0; i < 16; ++i)
        s.tiers.recordTierError(s.fast);
    std::vector<std::pair<uint64_t, uint64_t>> transitions;
    for (const TraceEvent &event : s.machine.tracer().events()) {
        if (event.type != TraceEventType::TierHealth)
            continue;
        EXPECT_EQ(event.args[0], static_cast<uint64_t>(s.fast));
        transitions.emplace_back(event.args[1], event.args[2]);
    }
    const auto code = [](TierHealth health) {
        return static_cast<uint64_t>(health);
    };
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[0].first, code(TierHealth::Healthy));
    EXPECT_EQ(transitions[0].second, code(TierHealth::Degraded));
    EXPECT_EQ(transitions[1].first, code(TierHealth::Degraded));
    EXPECT_EQ(transitions[1].second, code(TierHealth::Failed));
}

// ---------------------------------------------------------------------------
// Containment invariant rules (synthetic event streams)
// ---------------------------------------------------------------------------

using PoisonChecker = PinChecker;

TEST_F(PoisonChecker, QuarantineThenReallocationViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::FrameFree, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameQuarantine, 0, 5, 0));
    EXPECT_TRUE(checker.clean()) << checker.report();
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, DoubleQuarantineViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::FrameFree, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameQuarantine, 0, 5, 0));
    checker.consume(make(TraceEventType::FrameQuarantine, 0, 5, 0));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, QuarantineOfLiveFrameViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameQuarantine, 0, 5, 0));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, RePoisonViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 1, 0));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, UnknownPoisonOriginViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 9, 0));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, RecoveryFromUnquarantinedSourceViolates)
{
    // MemRecover's old frame key was never quarantined.
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::MemRecover,
                         traceFrameKey(0, Pfn{5}),
                         traceFrameKey(1, Pfn{9}), 0));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, ValidRecoverySequenceIsClean)
{
    // The stream the real engine emits for a reread recovery, reduced
    // to its checker-visible spine: poison, evacuate (the MigStart
    // scrubs the poison bit off the moving frame), quarantine the old
    // block, then record the recovery old→new.
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::MigStart, 0, 5, 1, 9));
    checker.consume(make(TraceEventType::MigComplete, 1, 9, 1, 1));
    checker.consume(make(TraceEventType::FrameQuarantine, 0, 5, 0));
    checker.consume(make(TraceEventType::MemRecover,
                         traceFrameKey(1, Pfn{9}),
                         traceFrameKey(0, Pfn{5}), 1));
    checker.consume(make(TraceEventType::FrameFree, 1, 9, 0, 1));
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.quarantinedCount(), 1u);
}

TEST_F(PoisonChecker, PoisonedBlockReallocatedBeforeQuarantineViolates)
{
    // A plain migration of a poisoned-in-place frame: the bad block
    // went back to the allocator instead of into quarantine, and the
    // next allocation was handed it.
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::MigStart, 0, 5, 1, 9));
    checker.consume(make(TraceEventType::MigComplete, 1, 9, 1, 1));
    EXPECT_TRUE(checker.clean()) << checker.report();
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, MigrationOntoPoisonedBlockBeforeQuarantineViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 0, 5, 0, 1));
    checker.consume(make(TraceEventType::FrameAlloc, 1, 7, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 0, 5, 0, 0));
    checker.consume(make(TraceEventType::MigStart, 0, 5, 1, 9));
    checker.consume(make(TraceEventType::MigComplete, 1, 9, 1, 1));
    checker.consume(make(TraceEventType::MigStart, 1, 7, 0, 5));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, PoisonedBlockKeptAsShadowViolates)
{
    checker.consume(make(TraceEventType::FrameAlloc, 1, 5, 0, 1));
    checker.consume(make(TraceEventType::FramePoison, 1, 5, 0, 0));
    checker.consume(make(TraceEventType::MigStart, 1, 5, 0, 9));
    checker.consume(make(TraceEventType::MigComplete, 0, 9, 1, 0));
    checker.consume(make(TraceEventType::ShadowMake, 1, 5, 0, 9));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, TierHealthTransitionsMustBeAdjacent)
{
    checker.consume(make(TraceEventType::TierHealth, 0, 0, 2, 20000));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, TierHealthFromMustMatchModel)
{
    // Model says tier 0 is Healthy; the event claims Degraded→Failed.
    checker.consume(make(TraceEventType::TierHealth, 0, 1, 2, 20000));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, DegradeBelowThresholdViolates)
{
    checker.consume(make(TraceEventType::TierHealth, 0, 0, 1, 1000));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, ValidHealthCycleIsClean)
{
    checker.consume(make(TraceEventType::TierHealth, 0, 0, 1, 4000));
    checker.consume(make(TraceEventType::TierHealth, 0, 1, 2, 16000));
    checker.consume(make(TraceEventType::TierHealth, 0, 2, 1, 5000));
    checker.consume(make(TraceEventType::TierHealth, 0, 1, 0, 900));
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(PoisonChecker, StormCountExceedingRequestViolates)
{
    checker.consume(make(TraceEventType::PoisonStorm, 0, 2, 3));
    EXPECT_FALSE(checker.clean());
}

TEST_F(PoisonChecker, DataLossOnUnknownFrameViolatesInStrict)
{
    checker.consume(make(TraceEventType::DataLoss, 0, 5, 0, 1));
    EXPECT_FALSE(checker.clean());
}

// ---------------------------------------------------------------------------
// Journal crash-replay racing a tier-offline drain
// ---------------------------------------------------------------------------

TEST_F(JournalCrashTest, ReplayAfterTierOfflineDrain)
{
    logSomeMetadata();
    s.configureFaults("journal_commit_crash oneshot 1\n");
    journal.commit(/*foreground=*/true);
    ASSERT_TRUE(journal.crashed());
    s.machine.faults().clear();

    // While the journal sits crashed, the fast tier (where its
    // buffers live) drains offline. The crashed transaction's records
    // must survive the relocation and replay cleanly afterwards. A
    // pinned journal buffer may legitimately strand on the offline
    // tier; everything else must move.
    const uint64_t stranded = s.migrator.offlineTier(s.fast);
    EXPECT_LE(stranded, 1u);
    ASSERT_FALSE(s.tiers.tier(s.fast).online());

    journal.commit(/*foreground=*/true);
    EXPECT_FALSE(journal.crashed());
    EXPECT_EQ(journal.recoveredTxs(), 1u);
    EXPECT_EQ(journal.liveRecords(), 0u);

    s.migrator.onlineTier(s.fast);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
}

} // namespace
} // namespace kloc
