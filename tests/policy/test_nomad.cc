/**
 * @file
 * Nomad shadow-copy mechanics: transactional promotion, write-recency
 * aborts, shadow-served free demotion, budget fallback, and offline
 * reclamation — plus a golden trace of the thrash pattern under
 * the registry's "nomad" (byte-identical across runs and RunPool worker
 * counts) and a seeded fuzz interleaving transactional copies with
 * fault injection.
 *
 * Regenerate the golden file after an intentional change with:
 *
 *   KLOC_UPDATE_GOLDEN=1 ./test_policy --gtest_filter='NomadGolden*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/run_pool.hh"
#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"
#include "sim/machine.hh"
#include "support/shadow_table.hh"
#include "trace/invariants.hh"

#ifndef KLOC_TRACE_GOLDEN_DIR
#error "KLOC_TRACE_GOLDEN_DIR must point at tests/trace/golden"
#endif

namespace kloc {
namespace {

/**
 * Minimal two-tier stack for driving the migration engine's shadow
 * paths directly. App pages place slow-first so promotions have
 * something to lift.
 */
struct ShadowStack
{
    ShadowStack()
        : machine(2, 1), tiers(machine), lru(machine, tiers),
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
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{300};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 2 * kGiB;
        slow = tiers.addTier(spec);

        placement = std::make_unique<StaticPlacement>(
            TierPreference{fast, slow}, TierPreference{slow, fast});
        heap.setPolicy(placement.get());

        machine.tracer().setEnabled(true);
        checker = std::make_unique<InvariantChecker>(machine.tracer(),
                                                     /*strict=*/true);
    }

    /** One app page, resident on the slow tier. */
    Frame *
    slowAppPage()
    {
        Frame *frame = heap.allocAppPage();
        EXPECT_NE(frame, nullptr);
        EXPECT_EQ(frame->tier, slow);
        return frame;
    }

    uint64_t
    promote(Frame *frame, Tick window = Tick{0})
    {
        return migrator.promoteTransactional({FrameRef(frame)}, fast,
                                             window);
    }

    uint64_t
    demote(Frame *frame)
    {
        return migrator.migrate({FrameRef(frame)}, slow);
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

TEST(NomadShadow, CommittedPromotionKeepsSourceAsShadow)
{
    ShadowStack s;
    Frame *frame = s.slowAppPage();
    const Pfn src_pfn = frame->pfn;

    EXPECT_EQ(s.promote(frame), 1u);
    EXPECT_EQ(frame->tier, s.fast);
    ASSERT_TRUE(frame->hasShadow());
    EXPECT_EQ(s.tiers.shadowOf(frame)->tier, s.slow);
    EXPECT_EQ(s.tiers.shadowOf(frame)->pfn, src_pfn);
    EXPECT_TRUE(s.tiers.shadowClean(frame));
    EXPECT_EQ(s.tiers.shadowPages(), 1u);
    EXPECT_EQ(s.migrator.stats().shadowMakes, 1u);
    EXPECT_EQ(s.migrator.stats().txnCommits, 1u);
    // The shadow holds slow-tier residency: the source pages were
    // never freed.
    EXPECT_EQ(s.tiers.tier(s.slow).usedPages().value(), 1u);
    EXPECT_TRUE(shadowTableMatchesFrames(s.tiers));

    s.heap.freeAppPage(frame);
    EXPECT_EQ(s.tiers.shadowPages(), 0u)
        << "freeing the frame must drop its shadow";
    EXPECT_EQ(s.tiers.shadowRecords(), 0u);
    EXPECT_TRUE(shadowTableMatchesFrames(s.tiers));
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(NomadShadow, RecentWriteAbortsTransactionalCopy)
{
    ShadowStack s;
    Frame *frame = s.slowAppPage();
    s.mem.touch(frame, 4 * kKiB, AccessType::Write);

    EXPECT_EQ(s.promote(frame, 10 * kMillisecond), 0u);
    EXPECT_EQ(frame->tier, s.slow) << "aborted copy must not move";
    EXPECT_FALSE(frame->hasShadow());
    EXPECT_EQ(s.migrator.stats().txnAbortedWrite, 1u);
    EXPECT_EQ(s.migrator.stats().txnCommits, 0u);

    // Once the write ages past the recency window the copy commits.
    s.machine.charge(20 * kMillisecond);
    EXPECT_EQ(s.promote(frame, 10 * kMillisecond), 1u);
    EXPECT_EQ(frame->tier, s.fast);

    s.heap.freeAppPage(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(NomadShadow, CleanShadowServesFreeDemotion)
{
    ShadowStack s;
    Frame *frame = s.slowAppPage();
    const Pfn src_pfn = frame->pfn;
    ASSERT_EQ(s.promote(frame), 1u);

    const MigrationStats &stats = s.migrator.stats();
    const uint64_t copied_before = stats.migratedPages;
    EXPECT_EQ(s.demote(frame), 1u);
    EXPECT_EQ(frame->tier, s.slow);
    EXPECT_EQ(frame->pfn, src_pfn)
        << "shadow demotion re-homes into the original pages";
    EXPECT_FALSE(frame->hasShadow());
    EXPECT_EQ(stats.shadowFreeDemotions, 1u);
    EXPECT_EQ(stats.migratedPages, copied_before + 1);
    EXPECT_EQ(s.tiers.shadowPages(), 0u);
    EXPECT_TRUE(shadowTableMatchesFrames(s.tiers));

    s.heap.freeAppPage(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(NomadShadow, DirtyShadowIsDroppedAndDemotionCopies)
{
    ShadowStack s;
    Frame *frame = s.slowAppPage();
    ASSERT_EQ(s.promote(frame), 1u);

    // Dirty the fast copy; the slow shadow is now stale.
    s.machine.charge(1 * kMillisecond);
    s.mem.touch(frame, 4 * kKiB, AccessType::Write);
    EXPECT_FALSE(s.tiers.shadowClean(frame));

    EXPECT_EQ(s.demote(frame), 1u);
    EXPECT_EQ(frame->tier, s.slow);
    EXPECT_EQ(s.migrator.stats().shadowFreeDemotions, 0u);
    EXPECT_EQ(s.tiers.shadowPages(), 0u);
    EXPECT_EQ(s.tiers.shadowDrops(), 1u);
    EXPECT_TRUE(shadowTableMatchesFrames(s.tiers));

    s.heap.freeAppPage(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(NomadShadow, ZeroBudgetFallsBackToExclusiveMove)
{
    ShadowStack s;
    s.migrator.setShadowBudget(FrameCount{0});
    Frame *frame = s.slowAppPage();

    EXPECT_EQ(s.promote(frame), 1u);
    EXPECT_EQ(frame->tier, s.fast);
    EXPECT_FALSE(frame->hasShadow());
    EXPECT_EQ(s.tiers.shadowPages(), 0u);
    EXPECT_EQ(s.migrator.stats().shadowMakes, 0u);
    EXPECT_EQ(s.tiers.tier(s.slow).usedPages().value(), 0u)
        << "exclusive move must free the source pages";

    s.heap.freeAppPage(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

TEST(NomadShadow, OfflineTierReclaimsItsShadows)
{
    ShadowStack s;
    Frame *frame = s.slowAppPage();
    ASSERT_EQ(s.promote(frame), 1u);
    ASSERT_EQ(s.tiers.shadowPages(), 1u);

    s.migrator.offlineTier(s.slow);
    EXPECT_EQ(s.tiers.shadowPages(), 0u)
        << "shadow pages must not pin an offline tier";
    EXPECT_FALSE(frame->hasShadow());
    EXPECT_TRUE(shadowTableMatchesFrames(s.tiers));

    s.migrator.onlineTier(s.slow);
    s.heap.freeAppPage(frame);
    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
}

// ---------------------------------------------------------------------------
// Golden thrash-under-Nomad trace.

/** Scenario outcome handed back from RunPool workers (gtest-free). */
struct GoldenOutcome
{
    std::string trace;
    std::vector<std::string> errors;
};

/**
 * A miniature deterministic thrash run under Nomad: app
 * pages overflow the fast tier, a sliding window oscillates around
 * its capacity, and the policy's scan ticks drive transactional
 * promotions and shadow demotions. Small enough that the serialized
 * trace is a reviewable golden artifact.
 */
GoldenOutcome
runThrashNomad()
{
    GoldenOutcome out;
    Machine machine(2, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    MigrationEngine migrator(machine, tiers, lru);
    KernelHeap heap(mem, tiers);
    KlocManager kloc(heap, migrator);

    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 128 * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId fast = tiers.addTier(spec);
    spec.name = "slow";
    spec.capacity = 256 * kPageSize;
    spec.readLatency = Tick{300};
    spec.writeLatency = Tick{300};
    spec.readBandwidth = 2 * kGiB;
    spec.writeBandwidth = 2 * kGiB;
    const TierId slow = tiers.addTier(spec);

    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    const std::unique_ptr<Policy> policy = makePolicy(
        "nomad", PolicyContext{heap, lru, migrator, &kloc, fast, slow});
    policy->install();
    kloc.setEnabled(false);
    heap.setKlocInterface(false);
    policy->start();

    std::vector<Frame *> pages;
    for (int i = 0; i < 180; ++i) {
        Frame *frame = heap.allocAppPage();
        if (!frame) {
            out.errors.push_back("app page allocation failed");
            return out;
        }
        pages.push_back(frame);
    }

    for (int step = 0; step < 160; ++step) {
        machine.setCurrentCpu(static_cast<unsigned>(step % 2));
        const auto ustep = static_cast<uint64_t>(step);
        const uint64_t ws = 96 + (ustep % 32) * 2;      // 96..158
        const uint64_t base = (ustep * 4) % pages.size();
        for (uint64_t j = 0; j < 48; ++j) {
            const uint64_t pos = (ustep * 48 + j) % ws;
            mem.touch(pages[(base + pos) % pages.size()], 4 * kKiB,
                      pos % 5 == 0 ? AccessType::Write
                                   : AccessType::Read);
        }
        machine.charge(10 * kMillisecond);
    }

    if (!shadowTableMatchesFrames(tiers))
        out.errors.push_back("shadow table out of step mid-run");
    policy->stop();
    if (dynamic_cast<const TieringStrategy &>(*policy).scanTicks() == 0)
        out.errors.push_back("no scan ticks fired");
    if (migrator.stats().shadowMakes == 0)
        out.errors.push_back("thrash never made a shadow copy");
    for (Frame *frame : pages)
        heap.freeAppPage(frame);
    if (tiers.shadowRecords() != 0 || !shadowTableMatchesFrames(tiers))
        out.errors.push_back("shadow records left after teardown");
    if (!checker.clean())
        out.errors.push_back("invariant violations:\n" +
                             checker.report());
    out.trace = machine.tracer().serialize();
    machine.tracer().setEnabled(false);
    return out;
}

/**
 * Golden poison-recovery scenario: app pages promoted under a Nomad
 * window keep clean slow-tier shadows; an hwpoison burst on the fast
 * tier then recovers straight out of those shadows for free, while a
 * dirtied page (stale shadow, no backing) records a DataLoss. The
 * serialized trace pins the whole containment choreography —
 * FramePoison, ShadowReuse, FrameQuarantine, MemRecover, TierHealth —
 * as a reviewable artifact.
 */
GoldenOutcome
runPoisonRecoveryNomad()
{
    GoldenOutcome out;
    ShadowStack s;
    auto check = [&out](bool ok, const char *what) {
        if (!ok)
            out.errors.push_back(what);
        return ok;
    };

    std::vector<Frame *> pages;
    for (int i = 0; i < 8; ++i) {
        Frame *frame = s.heap.allocAppPage();
        if (!check(frame != nullptr && frame->tier == s.slow,
                   "slow app page allocation failed"))
            return out;
        pages.push_back(frame);
    }

    // Promote everything transactionally: each page now lives on fast
    // with a clean shadow left behind on slow.
    std::vector<FrameRef> batch(pages.begin(), pages.end());
    if (!check(s.migrator.promoteTransactional(batch, s.fast, Tick{0}) ==
                   pages.size(),
               "transactional promotion did not commit"))
        return out;

    check(shadowTableMatchesFrames(s.tiers),
          "shadow table out of step after promotion");

    // One page takes write traffic, staling its shadow.
    s.mem.touch(pages[5], 4 * kKiB, AccessType::Write);

    // Poison three clean-promoted pages and the dirtied one.
    for (const size_t victim : {0u, 2u, 4u}) {
        check(s.migrator.poisonFrame(pages[victim], PoisonOrigin::Access),
              "clean shadow recovery failed");
        check(pages[victim]->tier == s.slow && !pages[victim]->poisoned,
              "recovered page not back on its shadow");
    }
    check(!s.migrator.poisonFrame(pages[5], PoisonOrigin::Scan),
          "stale shadow must not recover");

    const PoisonStats &poison = s.migrator.poisonStats();
    check(poison.recoveredShadow == 3, "expected 3 shadow recoveries");
    check(poison.dataLoss == 1, "expected 1 data loss");
    check(s.tiers.quarantinedPages() == 3,
          "evacuated blocks not quarantined");

    for (Frame *frame : pages)
        s.heap.freeAppPage(frame);
    check(s.tiers.quarantinedPages() == 4,
          "in-place poisoned block not quarantined on free");
    check(s.tiers.shadowRecords() == 0 && shadowTableMatchesFrames(s.tiers),
          "shadow records left after teardown");
    if (!s.checker->clean())
        out.errors.push_back("invariant violations:\n" +
                             s.checker->report());
    out.trace = s.machine.tracer().serialize();
    s.machine.tracer().setEnabled(false);
    return out;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(KLOC_TRACE_GOLDEN_DIR) + "/" + name + ".trace";
}

void
compareGolden(const std::string &name, const std::string &trace)
{
    const std::string path = goldenPath(name);
    if (std::getenv("KLOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(file) << "cannot write " << path;
        file << trace;
        GTEST_LOG_(INFO) << "updated golden trace " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with KLOC_UPDATE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(trace, want.str())
        << "trace diverged from " << path
        << "; if the change is intentional, regenerate with "
           "KLOC_UPDATE_GOLDEN=1";
}

TEST(NomadGolden, ThrashTraceDeterministicAndGolden)
{
    const GoldenOutcome first = runThrashNomad();
    ASSERT_TRUE(first.errors.empty()) << first.errors.front();
    const GoldenOutcome second = runThrashNomad();
    ASSERT_TRUE(second.errors.empty()) << second.errors.front();
    EXPECT_EQ(first.trace, second.trace)
        << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first.trace).size(), 0u);
    compareGolden("thrash_nomad", first.trace);
}

TEST(NomadGolden, PoisonRecoveryTraceDeterministicAndGolden)
{
    const GoldenOutcome first = runPoisonRecoveryNomad();
    ASSERT_TRUE(first.errors.empty()) << first.errors.front();
    const GoldenOutcome second = runPoisonRecoveryNomad();
    ASSERT_TRUE(second.errors.empty()) << second.errors.front();
    EXPECT_EQ(first.trace, second.trace)
        << "trace not deterministic across runs";
    // The artifact must actually contain the containment choreography.
    uint64_t recovers = 0, quarantines = 0, losses = 0;
    for (const TraceEvent &event : parseTrace(first.trace)) {
        recovers += event.type == TraceEventType::MemRecover;
        quarantines += event.type == TraceEventType::FrameQuarantine;
        losses += event.type == TraceEventType::DataLoss;
    }
    EXPECT_EQ(recovers, 3u);
    EXPECT_EQ(quarantines, 4u);
    EXPECT_EQ(losses, 1u);
    compareGolden("poison_recovery_nomad", first.trace);
}

TEST(NomadGolden, ThrashTraceIdenticalAcrossPoolWorkerCounts)
{
    // The KLOC_JOBS axis: the same scenario run on pools of different
    // widths (and serially) must serialize identical bytes.
    const GoldenOutcome serial = runThrashNomad();
    ASSERT_TRUE(serial.errors.empty()) << serial.errors.front();
    for (const unsigned workers : {2u, 4u}) {
        RunPool pool(workers);
        const auto pooled = runIndexed<GoldenOutcome>(
            pool, 3, [](size_t) { return runThrashNomad(); });
        for (const GoldenOutcome &out : pooled) {
            ASSERT_TRUE(out.errors.empty()) << out.errors.front();
            EXPECT_EQ(out.trace, serial.trace)
                << "trace diverged on a " << workers << "-worker pool";
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded transactional-copy fuzz under fault injection.

/** Per-seed fuzz outcome (gtest-free, RunPool-safe). */
struct TxnFuzzResult
{
    uint64_t seed = 0;
    std::vector<std::string> errors;
    MigrationStats migration;

    bool ok() const { return errors.empty(); }

    std::string
    summary() const
    {
        std::string out = "seed " + std::to_string(seed) + ":";
        for (const std::string &error : errors)
            out += "\n  " + error;
        return out;
    }
};

/**
 * Interleave transactional promotions, shadow demotions, writes, and
 * frees with injected migration faults and a slow-tier offline storm;
 * the strict checker must stay clean and every transactional window
 * must close.
 */
TxnFuzzResult
runTxnFuzzSeed(uint64_t seed)
{
    TxnFuzzResult result;
    result.seed = seed;
    auto check = [&result](bool ok, const char *what) {
        if (!ok)
            result.errors.push_back(what);
        return ok;
    };

    ShadowStack s;
    s.migrator.setShadowBudget(FrameCount{64});

    FaultSpec fspec;
    std::string err;
    if (!check(FaultSpec::parse(
                   "seed " + std::to_string(seed) + "\n"
                   "migration_no_space prob 0.25\n"
                   "tier_offline at 40000000 tier 1\n"
                   "tier_online at 80000000 tier 1\n",
                   fspec, &err),
               "FaultSpec::parse failed"))
        return result;
    s.machine.faults().configure(fspec);
    s.migrator.scheduleTierEvents();

    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    std::vector<Frame *> pages;
    for (int step = 0; step < 600; ++step) {
        s.machine.setCurrentCpu(static_cast<unsigned>(rng.nextBounded(2)));
        const double action = rng.nextDouble();
        if (action < 0.25 && pages.size() < 192) {
            if (Frame *frame = s.heap.allocAppPage())
                pages.push_back(frame);
        } else if (action < 0.45 && !pages.empty()) {
            Frame *frame = pages[rng.nextBounded(pages.size())];
            s.mem.touch(frame, 4 * kKiB,
                        rng.nextBool(0.3) ? AccessType::Write
                                          : AccessType::Read);
        } else if (action < 0.65 && !pages.empty()) {
            std::vector<FrameRef> batch;
            for (int i = 0; i < 8 && !pages.empty(); ++i)
                batch.push_back(FrameRef(
                    pages[rng.nextBounded(pages.size())]));
            s.migrator.promoteTransactional(batch, s.fast,
                                            5 * kMillisecond);
        } else if (action < 0.80 && !pages.empty()) {
            std::vector<FrameRef> batch;
            for (int i = 0; i < 8 && !pages.empty(); ++i)
                batch.push_back(FrameRef(
                    pages[rng.nextBounded(pages.size())]));
            s.migrator.migrate(batch, s.slow);
        } else if (action < 0.88 && !pages.empty()) {
            const size_t victim = rng.nextBounded(pages.size());
            s.heap.freeAppPage(pages[victim]);
            pages[victim] = pages.back();
            pages.pop_back();
        } else {
            s.machine.charge(
                static_cast<int64_t>(1 + rng.nextBounded(3)) *
                kMillisecond);
        }
    }

    s.machine.charge(100 * kMillisecond);
    check(s.tiers.tier(s.slow).online(),
          "slow tier never came back online");
    s.machine.faults().clear();
    check(shadowTableMatchesFrames(s.tiers),
          "shadow table out of step before teardown");

    for (Frame *frame : pages)
        s.heap.freeAppPage(frame);
    pages.clear();
    check(s.tiers.shadowRecords() == 0 && shadowTableMatchesFrames(s.tiers),
          "shadow records left after teardown");

    result.migration = s.migrator.stats();
    const MigrationStats &mig = result.migration;
    check(mig.txnBegins == mig.txnCommits + mig.txnAbortedWrite +
                               mig.txnAbortedNoSpace +
                               mig.txnAbortedBlocked,
          "transactional windows did not all close");
    check(s.tiers.shadowPages() == 0, "shadow pages leaked");
    check(s.checker->shadowCount() == 0,
          "checker models shadow copies at teardown");
    check(s.checker->outstandingPins() == 0,
          "outstanding pins at teardown");
    check(s.checker->openTransactionalCopies() == 0,
          "transactional windows open at teardown");
    check(s.checker->eventsChecked() > 0, "checker saw no events");
    if (!s.checker->clean())
        result.errors.push_back("invariant violations:\n" +
                                s.checker->report());
    s.machine.tracer().setEnabled(false);
    return result;
}

TEST(NomadTxnFuzz, AbortsUnderFaultsStayInvariantClean)
{
    constexpr uint64_t kFirstSeed = 100;
    constexpr uint64_t kSeedCount = 12;
    RunPool pool(RunPool::defaultWorkers());
    const auto results = runIndexed<TxnFuzzResult>(
        pool, kSeedCount,
        [](size_t i) { return runTxnFuzzSeed(kFirstSeed + i); });

    uint64_t total_aborts = 0;
    for (const TxnFuzzResult &result : results) {
        EXPECT_TRUE(result.ok()) << result.summary();
        total_aborts += result.migration.txnAbortedWrite +
                        result.migration.txnAbortedNoSpace +
                        result.migration.txnAbortedBlocked;
    }
    EXPECT_GT(total_aborts, 0u)
        << "fuzz never exercised a transactional abort";
}

} // namespace
} // namespace kloc
