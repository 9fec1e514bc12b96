/**
 * @file
 * Policy conformance suite: the contract every registered two-tier
 * policy must honour, run as one parameterized fixture over the six
 * dynamic policies (Naive, AutoNUMA, KLOCs, Nomad, Jenga,
 * KLOC+Nomad). A new policy registered in policy/registry.cc is
 * swept automatically — see docs/POLICIES.md.
 *
 * The contract:
 *  - install() exposes valid, non-empty tier preferences;
 *  - a degraded tier never comes before a healthy one in any of
 *    those preferences (TierManager::preferHealthy);
 *  - no page ever arrives on an offline tier, even while the policy
 *    keeps scanning through an offline/online storm (checker rule);
 *  - pins balance and the trace stays invariant-clean across aborted
 *    transactional copies under injected migration faults;
 *  - the serialized trace is byte-identical across repeat runs and
 *    across RunPool worker counts (the KLOC_JOBS axis);
 *  - promotion traffic under an adversarial thrash pattern is
 *    bounded by the policy's scan rate — no runaway migration.
 *
 * Scenario closures are shared-nothing and gtest-free so they can
 * run on RunPool workers; the main thread asserts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/run_pool.hh"
#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "policy/registry.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"
#include "support/lru_membership.hh"
#include "support/shadow_table.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

/**
 * Raw two-tier stack (no TwoTierPlatform, no filesystem) hosting one
 * registry-built policy, with tracing and the strict checker armed
 * before the first allocation.
 */
struct PolicyStack
{
    explicit PolicyStack(const std::string &policy_name)
        : machine(4, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 512 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 1024 * kPageSize;
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{300};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 2 * kGiB;
        slow = tiers.addTier(spec);

        machine.tracer().setEnabled(true);
        checker = std::make_unique<InvariantChecker>(machine.tracer(),
                                                     /*strict=*/true);

        policy = makePolicy(policy_name,
                            PolicyContext{heap, lru, migrator, &kloc,
                                          fast, slow});
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<InvariantChecker> checker;
    std::unique_ptr<Policy> policy;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

/** Fault/storm knobs for one conformance scenario run. */
struct ScenarioOptions
{
    uint64_t seed = 1;
    /** Arm migration_no_space so transactional copies abort. */
    bool migrationFaults = false;
    /** Offline/online the slow tier mid-run. */
    bool offlineStorm = false;
    int steps = 240;
};

/** Everything a scenario reports back to the asserting thread. */
struct ScenarioResult
{
    std::vector<std::string> errors;
    std::string trace;
    MigrationStats migration;
    uint64_t outstandingPins = 0;
    uint64_t eventsChecked = 0;
    Tick elapsed{};

    bool ok() const { return errors.empty(); }

    std::string
    summary() const
    {
        std::string out;
        for (const std::string &error : errors)
            out += error + "\n";
        return out;
    }
};

/**
 * Drive @p policy_name through the shared adversarial scenario: app
 * pages overflowing the fast tier, a sliding access window that
 * oscillates around fast capacity, and idle time so scan ticks fire.
 * Shared-nothing and gtest-free (RunPool-safe).
 */
ScenarioResult
runScenario(const std::string &policy_name, const ScenarioOptions &opts)
{
    ScenarioResult result;
    PolicyStack s(policy_name);
    auto check = [&result](bool ok, const std::string &what) {
        if (!ok)
            result.errors.push_back(what);
        return ok;
    };

    if (!check(s.policy != nullptr, "registry failed to build policy"))
        return result;
    s.policy->install();
    if (!s.policy->usesKloc()) {
        s.kloc.setEnabled(false);
        s.heap.setKlocInterface(false);
    }
    s.policy->start();

    if (opts.migrationFaults || opts.offlineStorm) {
        std::string spec_text =
            "seed " + std::to_string(opts.seed) + "\n";
        if (opts.migrationFaults)
            spec_text += "migration_no_space prob 0.3\n";
        if (opts.offlineStorm)
            spec_text += "tier_offline at 300000000 tier 1\n"
                         "tier_online at 700000000 tier 1\n";
        FaultSpec fspec;
        std::string err;
        if (!check(FaultSpec::parse(spec_text, fspec, &err),
                   "FaultSpec::parse failed: " + err))
            return result;
        s.machine.faults().configure(fspec);
        s.migrator.scheduleTierEvents();
    }

    // 700 app pages: the fast tier (512 pages) cannot hold them.
    std::vector<Frame *> pages;
    for (int i = 0; i < 700; ++i) {
        Frame *frame = s.heap.allocAppPage();
        if (!check(frame != nullptr, "app page allocation failed"))
            return result;
        pages.push_back(frame);
    }

    const Tick start = s.machine.now();
    for (int step = 0; step < opts.steps; ++step) {
        s.machine.setCurrentCpu(static_cast<unsigned>(step % 4));
        // Sliding window, size oscillating around fast capacity.
        const auto ustep = static_cast<uint64_t>(step);
        const uint64_t ws = 384 + (ustep % 64) * 8;     // 384..888
        const uint64_t base = (ustep * 16) % pages.size();
        for (uint64_t j = 0; j < 96; ++j) {
            const uint64_t pos = (ustep * 96 + j) % ws;
            Frame *frame = pages[(base + pos) % pages.size()];
            s.mem.touch(frame, 4 * kKiB,
                        pos % 5 == 0 ? AccessType::Write
                                     : AccessType::Read);
        }
        // Idle time lets scan ticks and tier events run.
        s.machine.charge(5 * kMillisecond);
    }
    result.elapsed = s.machine.now() - start;

    if (opts.offlineStorm)
        check(s.tiers.tier(s.slow).online(),
              "slow tier never came back online");

    s.machine.faults().clear();
    check(shadowTableMatchesFrames(s.tiers),
          "shadow records do not match the shadowed live frames");
    s.policy->stop();
    for (Frame *frame : pages)
        s.heap.freeAppPage(frame);
    pages.clear();

    result.migration = s.migrator.stats();
    result.outstandingPins = s.checker->outstandingPins();
    check(s.checker->openTransactionalCopies() == 0,
          "transactional windows open at teardown");
    check(lruListsHoldLiveFrames(s.tiers),
          "LRU lists do not hold exactly each tier's live frames");
    check(s.tiers.shadowRecords() == 0 && shadowTableMatchesFrames(s.tiers),
          "shadow records left at teardown");
    check(klocResidencyError(s.kloc).empty(),
          "KLOC residency lists do not match the knode trees");
    result.eventsChecked = s.checker->eventsChecked();
    check(s.tiers.liveFrames() <= 16 * KmemCache::kEmptyRetention,
          "frames leaked past slab empty-pool retention");
    if (!s.checker->clean())
        result.errors.push_back("invariant violations:\n" +
                                s.checker->report());
    result.trace = s.machine.tracer().serialize();
    s.machine.tracer().setEnabled(false);
    return result;
}

class PolicyConformance
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(PolicyConformance, InstallExposesValidPreferences)
{
    PolicyStack s(GetParam());
    ASSERT_NE(s.policy, nullptr);
    s.policy->install();
    EXPECT_STREQ(s.policy->name(), GetParam().c_str());

    const auto app = s.policy->appPreference();
    ASSERT_FALSE(app.empty());
    for (const TierId tier : app)
        EXPECT_TRUE(tier == s.fast || tier == s.slow);
    for (const bool active : {false, true}) {
        const auto kernel =
            s.policy->kernelPreference(ObjClass::PageCache, active);
        ASSERT_FALSE(kernel.empty());
        for (const TierId tier : kernel)
            EXPECT_TRUE(tier == s.fast || tier == s.slow);
    }
    s.policy->stop();
}

TEST_P(PolicyConformance, DegradedTierNeverPrecedesAHealthyOne)
{
    // The preferHealthy contract (docs/POLICIES.md): whichever tier
    // degrades, every preference the policy hands out lists it after
    // the healthy tier.
    constexpr uint64_t kErrorsToDegrade =
        TierManager::kDegradeScore / TierManager::kErrorScore;
    for (const bool degrade_fast : {true, false}) {
        PolicyStack s(GetParam());
        ASSERT_NE(s.policy, nullptr);
        s.policy->install();
        const TierId degraded = degrade_fast ? s.fast : s.slow;
        for (uint64_t i = 0; i < kErrorsToDegrade; ++i)
            s.tiers.recordTierError(degraded);
        ASSERT_EQ(s.tiers.health(degraded), TierHealth::Degraded);

        auto healthy_first = [degraded](const TierPreference &pref) {
            bool seen_degraded = false;
            for (const TierId tier : pref) {
                if (tier == degraded)
                    seen_degraded = true;
                else if (seen_degraded)
                    return false;
            }
            return true;
        };
        const char *tier_name = degrade_fast ? "fast" : "slow";
        EXPECT_TRUE(healthy_first(s.policy->appPreference()))
            << "app preference puts the degraded " << tier_name
            << " tier first";
        for (unsigned c = 0; c < kNumObjClasses; ++c) {
            const auto cls = static_cast<ObjClass>(c);
            for (const bool active : {false, true}) {
                EXPECT_TRUE(healthy_first(
                    s.policy->kernelPreference(cls, active)))
                    << objClassName(cls) << " (knode "
                    << (active ? "active" : "inactive")
                    << ") puts the degraded " << tier_name
                    << " tier first";
            }
        }
        s.policy->stop();
    }
}

TEST_P(PolicyConformance, NoMigrationToOfflineTiers)
{
    ScenarioOptions opts;
    opts.offlineStorm = true;
    const ScenarioResult result = runScenario(GetParam(), opts);
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_GT(result.eventsChecked, 0u);
}

TEST_P(PolicyConformance, PinBalanceAcrossAbortedTransactionalCopies)
{
    ScenarioOptions opts;
    opts.migrationFaults = true;
    const ScenarioResult result = runScenario(GetParam(), opts);
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_EQ(result.outstandingPins, 0u);
    // Every opened transactional window must have closed.
    const MigrationStats &mig = result.migration;
    EXPECT_EQ(mig.txnBegins, mig.txnCommits + mig.txnAbortedWrite +
                                 mig.txnAbortedNoSpace +
                                 mig.txnAbortedBlocked);
    // And every attempt resolved into exactly one outcome counter —
    // the abandon path must not drop or double-book attempts.
    EXPECT_EQ(mig.attempts, mig.resolvedAttempts());
}

TEST_P(PolicyConformance, DeterministicTraceAcrossSeedsAndJobs)
{
    const std::string policy = GetParam();
    const std::vector<uint64_t> seeds = {1, 2, 3};

    // Serial reference pass (the KLOC_JOBS=1 shape)...
    std::vector<std::string> serial;
    for (const uint64_t seed : seeds) {
        ScenarioOptions opts;
        opts.seed = seed;
        opts.migrationFaults = true;
        const ScenarioResult result = runScenario(policy, opts);
        ASSERT_TRUE(result.ok()) << result.summary();
        serial.push_back(result.trace);
    }

    // ...must match a pooled pass with 4 workers byte for byte.
    RunPool pool(4);
    const auto pooled = runIndexed<ScenarioResult>(
        pool, seeds.size(), [&](size_t i) {
            ScenarioOptions opts;
            opts.seed = seeds[i];
            opts.migrationFaults = true;
            return runScenario(policy, opts);
        });
    for (size_t i = 0; i < seeds.size(); ++i) {
        ASSERT_TRUE(pooled[i].ok()) << pooled[i].summary();
        EXPECT_EQ(serial[i], pooled[i].trace)
            << "seed " << seeds[i]
            << ": trace diverged between serial and pooled runs";
        EXPECT_FALSE(serial[i].empty());
    }
    // Different seeds with faults armed actually diverge as soon as
    // the policy attempts any migration (the armed fault site); Naive
    // never migrates, so its trace is legitimately seed-invariant.
    if (pooled[0].migration.attempts > 0) {
        EXPECT_NE(serial[0], serial[1]);
    }
}

TEST_P(PolicyConformance, BoundedPromotionUnderThrash)
{
    const ScenarioResult result = runScenario(GetParam(), {});
    EXPECT_TRUE(result.ok()) << result.summary();

    // A policy may promote at most one batch per scan tick; the
    // loosest registered batch is 8192 pages per 100 ms tick.
    const uint64_t max_ticks =
        static_cast<uint64_t>(result.elapsed /
                              (100 * kMillisecond)) + 2;
    EXPECT_LE(result.migration.promotedPages, max_ticks * 8192)
        << "promotion rate exceeds one max-size batch per scan tick";
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyConformance,
    ::testing::ValuesIn(conformancePolicyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '+')
                c = 'p';
        }
        return name;
    });

} // namespace
} // namespace kloc
