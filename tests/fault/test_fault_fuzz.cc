/**
 * @file
 * Randomised fault fuzzing: a full filesystem stack runs a random
 * syscall workload while the fault injector fires device errors,
 * timeouts, migration OOM, and journal commit crashes, and a tier is
 * offlined and onlined mid-run. The whole run executes with tracing
 * on and the InvariantChecker attached in strict mode, so every
 * recovery path must preserve the cross-subsystem ordering rules:
 * pins balance, journal frames are only released inside commit/replay
 * windows, offline tiers take no arrivals, and nothing leaks.
 *
 * Seeds run as a sweep on the RunPool (KLOC_JOBS workers): each seed
 * is a shared-nothing closure that builds its own machine stack and
 * returns failures as strings; the main thread asserts. Worker
 * threads must not touch gtest assertion macros — they record into
 * the per-seed FuzzResult instead.
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
#include "policy/registry.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"
#include "support/lru_membership.hh"
#include "support/shadow_table.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

/** Everything one fuzz seed reports back to the asserting thread. */
struct FuzzResult
{
    uint64_t seed = 0;
    uint64_t eventsChecked = 0;
    MigrationStats migration;
    PoisonStats poison;
    std::vector<std::string> errors;

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
 * Run one fuzz seed to completion. Shared-nothing (fresh machine,
 * tracer and RNG per call) and gtest-free, so calls may execute
 * concurrently on RunPool workers.
 *
 * With an empty @p policy_name the stack runs the classic static
 * placement (the original 24-seed sweep, unchanged). A non-empty
 * name hosts that registry-built policy instead, so its scan ticks,
 * transactional copies, and shadow bookkeeping all run under the
 * same fault storm.
 *
 * With @p poison set, the hwpoison sites arm too (access/scan/copy
 * probabilities plus scheduled poison_storm bursts on both tiers) and
 * the page-cache reread hook is wired, so the full containment ladder
 * runs inside the storm.
 */
FuzzResult
runFuzzSeed(uint64_t seed, const std::string &policy_name = {},
            bool poison = false)
{
    FuzzResult result;
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

    StaticPlacement placement({fast, slow}, {fast, slow});
    std::unique_ptr<Policy> policy;
    if (policy_name.empty()) {
        heap.setPolicy(&placement);
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fast, slow});
    } else {
        policy = makePolicy(policy_name,
                            PolicyContext{heap, lru, migrator, &kloc,
                                          fast, slow});
        if (!check(policy != nullptr, "registry failed to build policy"))
            return result;
        policy->install();
        if (!policy->usesKloc()) {
            kloc.setEnabled(false);
            heap.setKlocInterface(false);
        }
    }

    // Attach the checker before any allocation so strict mode sees
    // every entity's full lifecycle.
    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    FileSystem::Config config;
    config.journalCommitPeriod = 20 * kMillisecond;
    config.writebackPeriod = 5 * kMillisecond;
    auto fs = std::make_unique<FileSystem>(heap, &kloc, config);
    if (poison) {
        migrator.setRereadHook(
            [](void *ctx, Frame *frame) {
                return static_cast<FileSystem *>(ctx)->canRereadFrame(
                    frame);
            },
            [](void *ctx, Frame *frame) {
                return static_cast<FileSystem *>(ctx)->rereadFrame(frame);
            },
            fs.get());
    }

    // Arm every fault site at once, plus a mid-run offline/online
    // cycle of the slow tier. Rates are high enough that every
    // recovery path runs many times per seed.
    std::string spec_text =
        "seed " + std::to_string(seed) + "\n"
        "device_read prob 0.05\n"
        "device_write prob 0.05\n"
        "device_timeout prob 0.02\n"
        "migration_no_space prob 0.2\n"
        "journal_commit_crash prob 0.25\n"
        "tier_offline at 30000000 tier 1\n"
        "tier_online at 60000000 tier 1\n";
    if (poison) {
        spec_text +=
            "frame_poison_access prob 0.0005\n"
            "frame_poison_scan prob 0.001\n"
            "frame_poison_copy prob 0.002\n"
            "poison_storm at 10000000 tier 0 frames 4 repeat 3"
            " every 15000000\n"
            "poison_storm at 40000000 tier 1 frames 2\n";
    }
    FaultSpec fspec;
    std::string err;
    if (!FaultSpec::parse(spec_text, fspec, &err)) {
        result.errors.push_back("FaultSpec::parse failed: " + err);
        return result;
    }
    machine.faults().configure(fspec);
    migrator.scheduleTierEvents();

    fs->startDaemons();
    if (policy)
        policy->start();

    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    struct FileState
    {
        std::string name;
        int fd = -1;  ///< -1 while closed
    };
    std::vector<FileState> files;
    uint64_t next_file = 0;

    auto random_file = [&]() -> FileState * {
        if (files.empty())
            return nullptr;
        return &files[rng.nextBounded(files.size())];
    };

    for (int step = 0; step < 1200; ++step) {
        machine.setCurrentCpu(static_cast<unsigned>(rng.nextBounded(4)));
        const double action = rng.nextDouble();
        if (action < 0.08 && files.size() < 24) {
            FileState fstate;
            fstate.name = "f" + std::to_string(next_file++);
            fstate.fd = fs->create(fstate.name);
            if (!check(fstate.fd >= 0, "create returned a bad fd"))
                return result;
            files.push_back(fstate);
        } else if (action < 0.16) {
            FileState *f = random_file();
            if (f && f->fd < 0)
                f->fd = fs->open(f->name);
        } else if (action < 0.42) {
            FileState *f = random_file();
            if (!f || f->fd < 0)
                continue;
            const Bytes offset = rng.nextBounded(32) * kPageSize;
            const Bytes length = (1 + rng.nextBounded(16)) * kPageSize;
            fs->write(f->fd, offset, length);
        } else if (action < 0.62) {
            FileState *f = random_file();
            if (!f || f->fd < 0)
                continue;
            const Bytes offset = rng.nextBounded(48) * kPageSize;
            fs->read(f->fd, offset, (1 + rng.nextBounded(8)) * kPageSize);
        } else if (action < 0.68) {
            FileState *f = random_file();
            if (f && f->fd >= 0)
                fs->fsync(f->fd);
        } else if (action < 0.72) {
            FileState *f = random_file();
            if (f && f->fd >= 0)
                fs->truncate(f->fd, rng.nextBounded(24) * kPageSize);
        } else if (action < 0.80) {
            FileState *f = random_file();
            if (f && f->fd >= 0) {
                fs->close(f->fd);
                f->fd = -1;
            }
        } else if (action < 0.84) {
            // Unlink a closed file.
            for (size_t i = 0; i < files.size(); ++i) {
                if (files[i].fd < 0) {
                    check(fs->unlink(files[i].name),
                          "unlink of a closed file failed");
                    files[i] = files.back();
                    files.pop_back();
                    break;
                }
            }
        } else if (action < 0.89) {
            // Exercise the migration fault site from both directions.
            // Under a hosted policy promote transactionally, so copy
            // aborts — and, through migrate(), shadow reuse — also run
            // while faults fire.
            ScanResult scan;
            lru.scanTier(fast, FrameCount{64}, scan);
            if (!scan.demoteCandidates.empty())
                migrator.migrate(scan.demoteCandidates, slow);
            std::vector<FrameRef> hot;
            lru.collectHot(slow, FrameCount{32}, hot);
            if (!hot.empty()) {
                if (policy)
                    migrator.promoteTransactional(hot, fast,
                                                  5 * kMillisecond);
                else
                    migrator.migrate(hot, fast);
            }
        } else if (action < 0.93) {
            fs->reclaimPages(FrameCount{1 + rng.nextBounded(32)});
        } else {
            // Idle time lets the daemons and scheduled tier events run.
            machine.charge(
                static_cast<int64_t>(1 + rng.nextBounded(4)) * kMillisecond);
        }
    }

    // Make sure the scheduled offline *and* online events both fired.
    machine.charge(100 * kMillisecond);
    check(tiers.tier(slow).online(), "slow tier never came back online");
    check(klocResidencyError(kloc).empty(),
          "KLOC residency lists do not match the live knode trees");
    check(shadowTableMatchesFrames(tiers),
          "shadow records do not match the shadowed live frames");

    // Heal the device so teardown's flush-and-replay can complete,
    // then tear the filesystem down completely.
    machine.faults().clear();
    if (policy)
        policy->stop();
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
    fs.reset();

    // Everything must have come back: no leaked frames beyond slab
    // empty-pool retention, no outstanding pins, no violations.
    check(tiers.liveFrames() <= 16 * KmemCache::kEmptyRetention,
          "frames leaked past slab empty-pool retention");
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
    result.migration = migrator.stats();
    result.poison = migrator.poisonStats();
    machine.tracer().setEnabled(false);
    return result;
}

/** Acceptance floor is 20 clean seeds; run a few extra. */
constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kSeedCount = 24;

TEST(FaultFuzzSweep, AllSeedsCleanUnderInjectedFaults)
{
    RunPool pool(RunPool::defaultWorkers());
    const std::vector<FuzzResult> results = runIndexed<FuzzResult>(
        pool, kSeedCount,
        [](size_t i) { return runFuzzSeed(kFirstSeed + i); });

    for (const FuzzResult &result : results) {
        EXPECT_TRUE(result.ok()) << result.summary();
        EXPECT_GT(result.eventsChecked, 0u)
            << "seed " << result.seed << " checked no events";
    }
}

/**
 * A single seed run directly on the test thread — keeps one serial
 * repro path (`--gtest_filter=FaultFuzzSingle*`) for debugging pool
 * failures without the pool in the way.
 */
TEST(FaultFuzzSingle, SerialReproPath)
{
    const FuzzResult result = runFuzzSeed(kFirstSeed);
    EXPECT_TRUE(result.ok()) << result.summary();
}

/**
 * Policy sweep: the shadow-copy (Nomad) and rate-adaptive (Jenga)
 * strategies host the same faulted stack through the registry, so
 * transactional aborts, shadow reclaim across the tier offline/online
 * storm, and adaptive scan batching all run under device faults. The
 * strict checker enforces shadow-consistency throughout; teardown
 * additionally requires zero surviving shadow pages.
 */
TEST(FaultFuzzPolicySweep, NomadAndJengaStayInvariantClean)
{
    constexpr uint64_t kPolicyFirstSeed = 101;
    constexpr uint64_t kPolicySeedCount = 8;
    RunPool pool(RunPool::defaultWorkers());

    for (const std::string policy : {"nomad", "jenga"}) {
        const std::vector<FuzzResult> results = runIndexed<FuzzResult>(
            pool, kPolicySeedCount, [&policy](size_t i) {
                return runFuzzSeed(kPolicyFirstSeed + i, policy);
            });
        uint64_t txn_begins = 0;
        uint64_t shadow_makes = 0;
        for (const FuzzResult &result : results) {
            EXPECT_TRUE(result.ok())
                << policy << " " << result.summary();
            EXPECT_GT(result.eventsChecked, 0u)
                << policy << " seed " << result.seed
                << " checked no events";
            txn_begins += result.migration.txnBegins;
            shadow_makes += result.migration.shadowMakes;
        }
        if (policy == "nomad") {
            // The sweep must actually reach the transactional-copy
            // machinery, not just pass vacuously.
            EXPECT_GT(txn_begins, 0u);
            EXPECT_GT(shadow_makes, 0u);
        }
    }
}

/**
 * Poison-armed sweep: the same per-policy fuzz runs again with the
 * hwpoison sites live and storms scheduled on both tiers, so frame
 * quarantine, shadow/reread recovery, and tier-health degradation all
 * interleave with device faults, journal crashes, and the tier
 * offline/online storm. Strict-checker clean, and non-vacuous: every
 * policy's sweep must poison frames and land storm bursts.
 */
TEST(FaultFuzzPoisonSweep, PoisonStormsStayInvariantClean)
{
    constexpr uint64_t kPoisonFirstSeed = 301;
    constexpr uint64_t kPoisonSeedCount = 8;
    RunPool pool(RunPool::defaultWorkers());

    for (const std::string policy : {"nomad", "jenga"}) {
        const std::vector<FuzzResult> results = runIndexed<FuzzResult>(
            pool, kPoisonSeedCount, [&policy](size_t i) {
                return runFuzzSeed(kPoisonFirstSeed + i, policy,
                                   /*poison=*/true);
            });
        uint64_t poisoned = 0, storms = 0;
        for (const FuzzResult &result : results) {
            EXPECT_TRUE(result.ok()) << policy << " " << result.summary();
            poisoned += result.poison.poisonedFrames;
            storms += result.poison.stormFrames;
        }
        EXPECT_GT(poisoned, 0u) << policy << ": no frame ever poisoned";
        EXPECT_GT(storms, 0u) << policy << ": no storm burst landed";
    }
}

} // namespace
} // namespace kloc
