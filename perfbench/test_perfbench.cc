/**
 * @file
 * Tests of the benchmark itself: span pairing on synthetic event
 * streams, and the benchmark's contract — metric naming and counts,
 * phase timers that add up to the run, probes kept out of the timed
 * phases, and simulated results that tracing does not change.
 */

#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "perfbench.hh"

namespace kloc::perfbench {
namespace {

TraceEvent
event(uint64_t seq, int64_t tick, TraceEventType type, uint64_t a = 0,
      uint64_t b = 0, uint64_t c = 0, uint64_t d = 0)
{
    TraceEvent e;
    e.seq = seq;
    e.tick = Tick{tick};
    e.type = type;
    e.args[0] = a;
    e.args[1] = b;
    e.args[2] = c;
    e.args[3] = d;
    return e;
}

std::vector<Span>
pairAll(SpanPairer &pairer, const std::vector<TraceEvent> &events)
{
    std::vector<Span> spans;
    for (const TraceEvent &e : events) {
        if (auto span = pairer.consume(e))
            spans.push_back(*span);
    }
    return spans;
}

TEST(SpanPairer, InterleavedBracketsPairByKey)
{
    using T = TraceEventType;
    SpanPairer pairer;
    const auto spans = pairAll(pairer, {
        event(0, 10, T::BioSubmit, 1),
        event(1, 12, T::BioSubmit, 2),
        event(2, 15, T::JournalCommitStart, 7),
        event(3, 20, T::BioComplete, 1),
        event(4, 21, T::JournalDetachStart, 9),
        event(5, 30, T::BioComplete, 2),
        event(6, 31, T::JournalDetachEnd, 9),
        event(7, 40, T::JournalCommitEnd, 7),
    });
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].kind, SpanKind::Bio);
    EXPECT_EQ(spans[0].key, 1u);
    EXPECT_EQ(spans[0].duration(), Tick{10});
    EXPECT_EQ(spans[0].startSeq, 0u);
    EXPECT_EQ(spans[1].key, 2u);
    EXPECT_EQ(spans[1].duration(), Tick{18});
    EXPECT_EQ(spans[2].kind, SpanKind::JournalDetach);
    EXPECT_EQ(spans[2].duration(), Tick{10});
    EXPECT_EQ(spans[3].kind, SpanKind::JournalCommit);
    EXPECT_EQ(spans[3].duration(), Tick{25});
    for (unsigned k = 0; k < kNumSpanKinds; ++k) {
        EXPECT_EQ(pairer.openCount(static_cast<SpanKind>(k)), 0u);
        EXPECT_EQ(pairer.orphanEnds(static_cast<SpanKind>(k)), 0u);
    }
}

TEST(SpanPairer, SameKeyNestsLastInFirstOut)
{
    using T = TraceEventType;
    SpanPairer pairer;
    const auto spans = pairAll(pairer, {
        event(0, 0, T::JournalDetachStart, 0),
        event(1, 5, T::JournalDetachStart, 0),
        event(2, 6, T::JournalDetachEnd, 0),
        event(3, 9, T::JournalDetachEnd, 0),
    });
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].duration(), Tick{1});
    EXPECT_EQ(spans[1].duration(), Tick{9});
}

TEST(SpanPairer, MigrationPairsByDestinationFrame)
{
    using T = TraceEventType;
    SpanPairer pairer;
    // MigStart names src tier/pfn then dst tier/pfn; MigComplete names
    // the destination.
    const auto spans = pairAll(pairer, {
        event(0, 100, T::MigStart, 0, 55, 1, 77),
        event(1, 100, T::MigStart, 0, 56, 1, 78),
        event(2, 130, T::MigComplete, 1, 78, 1, 1),
        event(3, 150, T::MigComplete, 1, 77, 1, 1),
    });
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].key, traceFrameKey(1, Pfn{78}));
    EXPECT_EQ(spans[0].duration(), Tick{30});
    EXPECT_EQ(spans[1].key, traceFrameKey(1, Pfn{77}));
    EXPECT_EQ(spans[1].duration(), Tick{50});
}

TEST(SpanPairer, UnmatchedTailsAndOrphanEndsAreCounted)
{
    using T = TraceEventType;
    SpanPairer pairer;
    const auto spans = pairAll(pairer, {
        event(0, 1, T::BioComplete, 4),        // End before any Start
        event(1, 2, T::BioSubmit, 5),
        event(2, 3, T::JournalCommitStart, 1),
        event(3, 4, T::JournalCommitStart, 2),
        event(4, 8, T::JournalCommitEnd, 2),
        event(5, 9, T::FrameAlloc, 0, 1, 0, 0),  // not a bracket
    });
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].key, 2u);
    EXPECT_EQ(pairer.orphanEnds(SpanKind::Bio), 1u);
    EXPECT_EQ(pairer.openCount(SpanKind::Bio), 1u);
    EXPECT_EQ(pairer.openCount(SpanKind::JournalCommit), 1u);
    EXPECT_EQ(pairer.openCount(SpanKind::JournalDetach), 0u);
}

TEST(SpanPairer, DeferredBatchDeliveryKeepsVirtualDurations)
{
    // Emit through a real tracer inside a TraceBatch window: listener
    // delivery lags emission, but spans use the emission ticks.
    VirtualClock clock;
    Tracer tracer(clock);
    tracer.setEnabled(true);
    SpanPairer pairer;
    std::vector<Span> spans;
    uint64_t delivered = 0;
    tracer.addListener([&](const TraceEvent &e) {
        ++delivered;
        if (auto span = pairer.consume(e))
            spans.push_back(*span);
    });
    {
        TraceBatch batch(tracer);
        for (uint64_t bio = 1; bio <= 3; ++bio) {
            tracer.emit(TraceEventType::BioSubmit, bio);
            clock.advance(Tick{static_cast<int64_t>(100 * bio)});
            tracer.emit(TraceEventType::BioComplete, bio);
        }
        EXPECT_EQ(delivered, 0u);  // all still staged
        EXPECT_TRUE(spans.empty());
    }
    EXPECT_EQ(delivered, 6u);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].duration(), Tick{100});
    EXPECT_EQ(spans[1].duration(), Tick{200});
    EXPECT_EQ(spans[2].duration(), Tick{300});
    EXPECT_EQ(spans[2].start, Tick{300});
}

TEST(Contract, MetricNamesAndCounts)
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    auto check = [&](const std::vector<MetricDef> &defs) {
        for (const MetricDef &def : defs) {
            EXPECT_TRUE(std::regex_match(def.name, name_re)) << def.name;
            EXPECT_TRUE(std::regex_match(def.unit, unit_re)) << def.unit;
            EXPECT_TRUE(def.better == "lower" || def.better == "higher")
                << def.name;
            EXPECT_TRUE(seen.insert(def.name).second) << def.name;
        }
    };
    check(endToEndMetrics());
    check(perLayerMetrics());
    EXPECT_GE(endToEndMetrics().size(), 1u);
    EXPECT_LE(endToEndMetrics().size(), 16u);
    EXPECT_GE(perLayerMetrics().size(), 1u);
    EXPECT_LE(perLayerMetrics().size(), 128u);
    EXPECT_TRUE(seen.count("setup_s"));
    for (const BenchWorkload &w : benchWorkloads())
        EXPECT_TRUE(std::regex_match(w.name, name_re)) << w.name;
}

/** Small enough to run in a test, large enough to touch every layer. */
BenchWorkload
tinyWorkload(const std::string &driver, const std::string &policy)
{
    return BenchWorkload{"tiny_" + driver, driver, policy, 1024, 300};
}

TEST(Contract, PhaseTimersSumToTheRun)
{
    const BenchWorkload w = tinyWorkload("varmail", "klocs");
    const double start = threadCpuSeconds();
    const RunRecord run = runProtocol(w, kDefaultSeed);
    const double outer = threadCpuSeconds() - start;

    double sum = 0;
    for (const double s : run.times.seconds) {
        EXPECT_GE(s, 0.0);
        sum += s;
    }
    EXPECT_DOUBLE_EQ(run.times.total(), sum);
    EXPECT_DOUBLE_EQ(run.times.setup(),
                     run.times.of(Phase::Build) + run.times.of(Phase::Load) +
                         run.times.of(Phase::Sync) +
                         run.times.of(Phase::Quiesce));
    // The phases cover the run: the untimed gaps are a digest only.
    EXPECT_LE(run.times.total(), outer);
    EXPECT_GT(run.times.total(), 0.95 * outer - 1e-3);
    EXPECT_GE(run.wallSeconds, run.times.total() * 0.95);
    EXPECT_EQ(run.result.operations, w.ops);
}

TEST(Contract, ScalingFollowsTheReferenceJobBesideEachPhase)
{
    PhaseTimes times;
    times.seconds.fill(1.0);
    EXPECT_EQ(scaledTimes(times, HostSpeed{}).seconds, times.seconds);

    // A host twice as slow in the gaps around measurement.
    const double r = kReferenceCalibrationS;
    const PhaseTimes scaled = scaledTimes(times, HostSpeed{r, 2 * r, 2 * r, r});
    EXPECT_DOUBLE_EQ(scaled.of(Phase::Build), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(scaled.of(Phase::Quiesce), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(scaled.of(Phase::Measure), 0.5);
    EXPECT_DOUBLE_EQ(scaled.of(Phase::Teardown), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(scaled.of(Phase::Destroy), 2.0 / 3.0);
    EXPECT_GT(calibrationSeconds(), 0.0);
}

TEST(Contract, ProbesNeverRunInsideTimedPhases)
{
    const BenchWorkload w = tinyWorkload("webserver", "klocs");
    const uint64_t before = probeCalls();
    Prober prober(20, kDefaultSeed);
    const RunRecord probed = runProtocol(w, kDefaultSeed, &prober);
    EXPECT_GT(probeCalls(), before);
    EXPECT_EQ(probed.probeCallsTimed, 0u);
    EXPECT_EQ(prober.failures(), 0u);
    for (const std::string &probe : probeNames()) {
        EXPECT_TRUE(prober.metrics().count(probe + ".p50")) << probe;
        EXPECT_TRUE(prober.metrics().count(probe + ".p99")) << probe;
    }
    EXPECT_EQ(prober.samples().at("net.conn_us").size(), 20u);

    // The probes act after the digest is taken: the probed run agrees
    // with a plain one.
    const RunRecord plain = runProtocol(w, kDefaultSeed);
    EXPECT_EQ(plain.probeCallsTimed, 0u);
    EXPECT_EQ(plain.digest, probed.digest);
}

TEST(Contract, TracingLeavesSimulatedResultsUnchanged)
{
    for (const auto &[driver, policy] :
         {std::pair<std::string, std::string>{"thrash", "nomad"},
          {"rocksdb", "klocs"}}) {
        const BenchWorkload w = tinyWorkload(driver, policy);
        Ledger ledger;
        const RunRecord traced = runProtocol(w, kDefaultSeed, &ledger);
        const RunRecord plain = runProtocol(w, kDefaultSeed);
        EXPECT_EQ(traced.digest, plain.digest) << driver;
        EXPECT_EQ(traced.result.throughput(), plain.result.throughput());
        EXPECT_TRUE(ledger.violations().empty()) << driver;
        EXPECT_EQ(ledger.unpairedBrackets(), 0u) << driver;
        EXPECT_GT(ledger.measureEvents(), 0u) << driver;

        Ledger again;
        runProtocol(w, kDefaultSeed, &again);
        EXPECT_EQ(again.simMetrics(), ledger.simMetrics()) << driver;
        std::set<std::string> declared;
        for (const MetricDef &def : perLayerMetrics())
            declared.insert(def.name);
        for (const auto &[name, value] : ledger.simMetrics())
            EXPECT_TRUE(declared.count(name)) << name;
    }
}

TEST(Contract, SeedChangesTheInputs)
{
    const BenchWorkload w = tinyWorkload("varmail", "klocs");
    EXPECT_NE(runProtocol(w, kDefaultSeed).digest,
              runProtocol(w, kHeldOutSeed).digest);
}

} // namespace
} // namespace kloc::perfbench
