/**
 * @file
 * Chaos soak: every conformance policy rides the same full-stack
 * workload while *all* fault families fire together — device errors
 * and timeouts, migration OOM, journal commit crashes, a tier
 * offline/online storm, per-access/scan/copy frame poisoning, and
 * scheduled poison_storm bursts. The strict InvariantChecker replays
 * each run's trace, so hwpoison containment (quarantine, shadow and
 * reread recovery, tier health drains) must compose with every other
 * recovery path under pressure.
 *
 * Determinism is part of the contract: the policy × seed grid runs on
 * the RunPool at 1 and 4 workers and the concatenated serialized
 * traces must be byte-identical — the chaos is seeded, never racy.
 *
 * Worker closures are shared-nothing and gtest-free (errors come back
 * as strings); the main thread asserts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/run_pool.hh"
#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "fs/vfs.hh"
#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "platform/two_tier.hh"
#include "policy/registry.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"
#include "support/lru_membership.hh"
#include "support/shadow_table.hh"
#include "trace/invariants.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

/** Everything one soak cell reports back to the asserting thread. */
struct SoakResult
{
    std::string policy;
    uint64_t seed = 0;
    uint64_t eventsChecked = 0;
    PoisonStats poison;
    MigrationStats migration;
    std::string trace;  ///< serialized event trace (identity check)
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }

    std::string
    summary() const
    {
        std::string out = policy + " seed " + std::to_string(seed) + ":";
        for (const std::string &error : errors)
            out += "\n  " + error;
        return out;
    }
};

/**
 * One soak cell: a registry-built policy hosts a faulted filesystem
 * workload with the whole chaos menu armed. Shared-nothing and
 * deterministic — same (policy, seed) always yields the same trace.
 * At the end each tier's buddy allocator must validate.
 */
SoakResult
runSoakCell(const std::string &policy_name, uint64_t seed)
{
    SoakResult result;
    result.policy = policy_name;
    result.seed = seed;
    auto check = [&result](bool ok, const char *what) {
        if (!ok)
            result.errors.push_back(what);
        return ok;
    };

    Machine machine(4, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    MigrationEngine migrator(machine, tiers, lru);
    KernelHeap heap(mem, tiers);
    KlocManager kloc(heap, migrator);

    TierSpec tspec;
    tspec.name = "fast";
    tspec.capacity = 512 * kPageSize;
    tspec.readLatency = Tick{80};
    tspec.writeLatency = Tick{80};
    tspec.readBandwidth = 10 * kGiB;
    tspec.writeBandwidth = 10 * kGiB;
    const TierId fast = tiers.addTier(tspec);
    tspec.name = "slow";
    tspec.capacity = 1024 * kPageSize;
    tspec.readLatency = Tick{300};
    tspec.writeLatency = Tick{300};
    tspec.readBandwidth = 2 * kGiB;
    tspec.writeBandwidth = 2 * kGiB;
    const TierId slow = tiers.addTier(tspec);

    std::unique_ptr<Policy> policy = makePolicy(
        policy_name, PolicyContext{heap, lru, migrator, &kloc, fast,
                                   slow});
    if (!check(policy != nullptr, "registry failed to build policy"))
        return result;
    policy->install();
    if (!policy->usesKloc()) {
        kloc.setEnabled(false);
        heap.setKlocInterface(false);
    }

    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    FileSystem::Config config;
    config.journalCommitPeriod = 20 * kMillisecond;
    config.writebackPeriod = 5 * kMillisecond;
    auto fs = std::make_unique<FileSystem>(heap, &kloc, config);
    // Clean page-cache pages can be re-read off the device when their
    // frame poisons — the second rung of the recovery ladder.
    migrator.setRereadHook(
        [](void *ctx, Frame *frame) {
            return static_cast<FileSystem *>(ctx)->canRereadFrame(frame);
        },
        [](void *ctx, Frame *frame) {
            return static_cast<FileSystem *>(ctx)->rereadFrame(frame);
        },
        fs.get());

    // The full chaos menu. Poison rates are low (poisoning is
    // permanent capacity loss) but the scheduled storms guarantee
    // bursts on both tiers; the second storm lands while the slow
    // tier is health/operator churned.
    FaultSpec fspec;
    std::string err;
    if (!FaultSpec::parse(
            "seed " + std::to_string(seed) + "\n"
            "device_read prob 0.03\n"
            "device_write prob 0.03\n"
            "device_timeout prob 0.01\n"
            "migration_no_space prob 0.1\n"
            "journal_commit_crash prob 0.1\n"
            "frame_poison_access prob 0.0005\n"
            "frame_poison_scan prob 0.001\n"
            "frame_poison_copy prob 0.002\n"
            "tier_offline at 12000000 tier 1\n"
            "tier_online at 30000000 tier 1\n"
            "poison_storm at 8000000 tier 0 frames 4 repeat 3"
            " every 10000000\n"
            "poison_storm at 20000000 tier 1 frames 2\n",
            fspec, &err)) {
        result.errors.push_back("FaultSpec::parse failed: " + err);
        return result;
    }
    machine.faults().configure(fspec);
    migrator.scheduleTierEvents();

    fs->startDaemons();
    policy->start();

    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    struct FileState
    {
        std::string name;
        int fd = -1;
    };
    std::vector<FileState> files;
    uint64_t next_file = 0;
    auto random_file = [&]() -> FileState * {
        if (files.empty())
            return nullptr;
        return &files[rng.nextBounded(files.size())];
    };

    for (int step = 0; step < 500; ++step) {
        machine.setCurrentCpu(static_cast<unsigned>(rng.nextBounded(4)));
        const double action = rng.nextDouble();
        if (action < 0.08 && files.size() < 16) {
            FileState fstate;
            fstate.name = std::string("f").append(std::to_string(next_file++));
            fstate.fd = fs->create(fstate.name);
            if (!check(fstate.fd >= 0, "create returned a bad fd"))
                return result;
            files.push_back(fstate);
        } else if (action < 0.14) {
            FileState *f = random_file();
            if (f && f->fd < 0)
                f->fd = fs->open(f->name);
        } else if (action < 0.40) {
            FileState *f = random_file();
            if (!f || f->fd < 0)
                continue;
            fs->write(f->fd, rng.nextBounded(32) * kPageSize,
                      (1 + rng.nextBounded(12)) * kPageSize);
        } else if (action < 0.60) {
            FileState *f = random_file();
            if (!f || f->fd < 0)
                continue;
            fs->read(f->fd, rng.nextBounded(40) * kPageSize,
                     (1 + rng.nextBounded(8)) * kPageSize);
        } else if (action < 0.66) {
            FileState *f = random_file();
            if (f && f->fd >= 0)
                fs->fsync(f->fd);
        } else if (action < 0.74) {
            FileState *f = random_file();
            if (f && f->fd >= 0) {
                fs->close(f->fd);
                f->fd = -1;
            }
        } else if (action < 0.78) {
            for (size_t i = 0; i < files.size(); ++i) {
                if (files[i].fd < 0) {
                    check(fs->unlink(files[i].name),
                          "unlink of a closed file failed");
                    files[i] = files.back();
                    files.pop_back();
                    break;
                }
            }
        } else if (action < 0.86) {
            // Migration churn through the hosted policy's paths, so
            // poison-during-copy and shadow recovery both happen.
            ScanResult scan;
            lru.scanTier(fast, FrameCount{48}, scan);
            if (!scan.demoteCandidates.empty())
                migrator.migrate(scan.demoteCandidates, slow);
            std::vector<FrameRef> hot;
            lru.collectHot(slow, FrameCount{24}, hot);
            if (!hot.empty())
                migrator.promoteTransactional(hot, fast,
                                              5 * kMillisecond);
        } else if (action < 0.92) {
            fs->reclaimPages(FrameCount{1 + rng.nextBounded(24)});
        } else {
            machine.charge(
                static_cast<int64_t>(1 + rng.nextBounded(4)) *
                kMillisecond);
        }
    }

    // Let the tier storm finish and health scores decay.
    machine.charge(100 * kMillisecond);
    check(tiers.tier(slow).online(),
          "slow tier neither onlined by schedule nor readmitted");
    check(klocResidencyError(kloc).empty(),
          "KLOC residency lists do not match the live knode trees");
    check(shadowTableMatchesFrames(tiers),
          "shadow records do not match the shadowed live frames");

    machine.faults().clear();
    policy->stop();
    // The harness drove the transactional/shadow paths itself (even
    // under policies that never would), so it also owns the cleanup.
    tiers.dropAllShadows(ShadowDropReason::PolicyStop);
    for (FileState &f : files) {
        if (f.fd >= 0) {
            fs->close(f.fd);
            f.fd = -1;
        }
    }
    fs->stopDaemons();
    fs->syncAll();
    check(!fs->journal().crashed(), "journal still crashed after syncAll");
    for (FileState &f : files)
        check(fs->unlink(f.name), "teardown unlink failed");
    files.clear();
    result.poison = migrator.poisonStats();
    result.migration = migrator.stats();
    fs.reset();

    check(tiers.liveFrames() <= 16 * KmemCache::kEmptyRetention,
          "frames leaked past slab empty-pool retention");
    // validate() panics on a corrupt buddy; pcp-cached blocks count
    // as free pages.
    for (const TierId id : {fast, slow}) {
        const Tier &tier = tiers.tier(id);
        tier.buddy().validate();
        check(tier.usedPages() + tier.freePages() +
                      tier.buddy().quarantinedFrames() ==
                  tier.totalPages(),
              "tier used + free + quarantined pages != total");
    }
    check(tiers.shadowPages() == 0, "shadow pages leaked at teardown");
    check(checker.outstandingPins() == 0, "outstanding pins at teardown");
    check(checker.openTransactionalCopies() == 0,
          "transactional windows open at teardown");
    check(lruListsHoldLiveFrames(tiers),
          "LRU lists do not hold exactly each tier's live frames");
    check(tiers.shadowRecords() == 0 && shadowTableMatchesFrames(tiers),
          "shadow records left at teardown");
    check(klocResidencyError(kloc).empty(),
          "KLOC residency lists do not match the knode trees");
    check(checker.eventsChecked() > 0, "checker saw no events");
    if (!checker.clean())
        result.errors.push_back("invariant violations:\n" +
                                checker.report());
    result.eventsChecked = checker.eventsChecked();
    result.trace = machine.tracer().serialize();
    machine.tracer().setEnabled(false);
    return result;
}

constexpr uint64_t kSoakFirstSeed = 601;
constexpr uint64_t kSoakSeedsPerPolicy = 8;

struct SoakCell
{
    std::string policy;
    uint64_t seed;
};

std::vector<SoakCell>
soakGrid()
{
    std::vector<SoakCell> grid;
    for (const std::string &policy : conformancePolicyNames()) {
        for (uint64_t i = 0; i < kSoakSeedsPerPolicy; ++i)
            grid.push_back({policy, kSoakFirstSeed + i});
    }
    return grid;
}

std::vector<SoakResult>
runGrid(unsigned workers)
{
    const std::vector<SoakCell> grid = soakGrid();
    RunPool pool(workers);
    return runIndexed<SoakResult>(pool, grid.size(), [&grid](size_t i) {
        return runSoakCell(grid[i].policy, grid[i].seed);
    });
}

/**
 * The soak proper: every conformance policy × 8 seeds, pooled at 4
 * workers, invariant-clean and non-vacuous (the poison machinery must
 * actually fire for every policy), then re-run at 1 worker and
 * compared byte-for-byte.
 */
TEST(ChaosSoak, AllPoliciesCleanAndByteIdenticalAcrossWorkerCounts)
{
    const std::vector<SoakResult> pooled = runGrid(4);
    ASSERT_EQ(pooled.size(),
              conformancePolicyNames().size() * kSoakSeedsPerPolicy);

    uint64_t cursor = 0;
    for (const std::string &policy : conformancePolicyNames()) {
        uint64_t poisoned = 0, storms = 0, recovered = 0;
        for (uint64_t i = 0; i < kSoakSeedsPerPolicy; ++i) {
            const SoakResult &result = pooled[cursor++];
            EXPECT_TRUE(result.ok()) << result.summary();
            EXPECT_GT(result.eventsChecked, 0u) << result.summary();
            poisoned += result.poison.poisonedFrames;
            storms += result.poison.stormFrames;
            recovered += result.poison.recoveredShadow +
                         result.poison.recoveredReread;
        }
        // Non-vacuity: the chaos reached the containment machinery.
        EXPECT_GT(poisoned, 0u) << policy << ": no frame ever poisoned";
        EXPECT_GT(storms, 0u) << policy << ": no storm burst landed";
        EXPECT_GT(recovered, 0u) << policy << ": no recovery ever ran";
    }

    const std::vector<SoakResult> serial = runGrid(1);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_EQ(pooled[i].trace, serial[i].trace)
            << pooled[i].policy << " seed " << pooled[i].seed
            << ": pooled and serial traces diverge";
    }
}

/** One poison-stormed workload run, reported back to the main thread. */
struct StormRun
{
    std::string trace;
    PoisonStats poison;
    uint64_t quarantined = 0;
    bool clean = false;
    std::string report;
};

StormRun
runStorm(const std::string &workload_name)
{
    StormRun run;
    TwoTierPlatform::Config platform_config;
    platform_config.scale = 256;
    TwoTierPlatform platform(platform_config, "klocs");
    System &sys = platform.sys();

    // Poison chaos only: per-access/scan/copy poisoning plus storm
    // bursts on both tiers, timed to land while the workload runs.
    FaultSpec fspec;
    std::string err;
    if (!FaultSpec::parse(
            "seed 707\n"
            "frame_poison_access prob 0.0005\n"
            "frame_poison_scan prob 0.001\n"
            "frame_poison_copy prob 0.002\n"
            "poison_storm at 8000000 tier 0 frames 4 repeat 3"
            " every 10000000\n"
            "poison_storm at 20000000 tier 1 frames 2\n",
            fspec, &err)) {
        run.report = "FaultSpec::parse failed: " + err;
        return run;
    }
    sys.machine().faults().configure(fspec);
    sys.migrator().scheduleTierEvents();
    sys.machine().tracer().setEnabled(true);
    InvariantChecker checker(sys.machine().tracer(), /*strict=*/true);

    WorkloadConfig wl_config;
    wl_config.scale = 1024;
    wl_config.operations = 1200;
    wl_config.seed = 7;
    {
        // Teardown, at the end of this scope, runs fault-free.
        const MeasuredRun measured =
            runMeasured(sys, workload_name, wl_config);
        sys.machine().faults().clear();
    }

    run.trace = sys.machine().tracer().serialize();
    run.poison = sys.migrator().poisonStats();
    run.quarantined = sys.tiers().quarantinedPages();
    run.clean = checker.clean();
    run.report = checker.report();
    return run;
}

const std::vector<std::string> kStormWorkloads = {"thrash", "rocksdb"};

std::vector<StormRun>
runStormGrid(unsigned workers)
{
    RunPool pool(workers);
    return runIndexed<StormRun>(pool, kStormWorkloads.size(), [](size_t i) {
        return runStorm(kStormWorkloads[i]);
    });
}

/**
 * Poison storms against real workload drivers: thrash and rocksdb run
 * through runMeasured while storm bursts and seeded frame poisoning
 * fire. Containment must hold (strict invariants, non-vacuous
 * poisoning) and each chaotic run must be byte-identical whether the
 * cells run on 1 or 4 pool workers.
 */
TEST(ChaosSoakWorkloads, PoisonStormsByteIdenticalAcrossWorkerCounts)
{
    const std::vector<StormRun> serial = runStormGrid(1);
    const std::vector<StormRun> pooled = runStormGrid(4);
    ASSERT_EQ(serial.size(), kStormWorkloads.size());
    ASSERT_EQ(pooled.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(kStormWorkloads[i]);
        EXPECT_TRUE(serial[i].clean) << serial[i].report;
        EXPECT_GT(serial[i].poison.poisonedFrames, 0u)
            << "storms never reached the workload run";
        EXPECT_GT(serial[i].poison.stormFrames, 0u);

        EXPECT_TRUE(pooled[i].clean) << pooled[i].report;
        EXPECT_EQ(serial[i].trace, pooled[i].trace)
            << "poison-stormed trace diverged across workers";
        EXPECT_EQ(serial[i].poison.poisonedFrames,
                  pooled[i].poison.poisonedFrames);
        EXPECT_EQ(serial[i].quarantined, pooled[i].quarantined);
    }
}

/**
 * One serial cell kept as a debugger-friendly repro path. Override
 * the cell with KLOC_SOAK_POLICY / KLOC_SOAK_SEED to replay any grid
 * cell in isolation.
 */
TEST(ChaosSoakSingle, SerialReproPath)
{
    const char *policy_env = std::getenv("KLOC_SOAK_POLICY");
    const char *seed_env = std::getenv("KLOC_SOAK_SEED");
    const std::string policy = policy_env ? policy_env : "nomad";
    const uint64_t seed =
        seed_env ? std::strtoull(seed_env, nullptr, 10) : kSoakFirstSeed;
    const SoakResult result = runSoakCell(policy, seed);
    EXPECT_TRUE(result.ok()) << result.summary();
    EXPECT_GT(result.poison.poisonedFrames, 0u);
}

} // namespace
} // namespace kloc
