/**
 * @file
 * Workload driver tests: every Table 3 driver runs at a tiny scale,
 * produces operations and virtual time, exercises the expected
 * kernel subsystems, is deterministic for a fixed seed, and tears
 * down without leaking simulated memory.
 *
 * Each driver also pins a compact golden digest (trace byte count,
 * FNV-1a hash, operations, elapsed) of one traced run; full traces
 * would be megabytes across eight drivers, and the digest still
 * detects any byte-level change. Regenerate after an intentional
 * tracepoint or driver change with:
 *
 *   KLOC_UPDATE_GOLDEN=1 ./test_workload \
 *       --gtest_filter='*WorkloadParam.GoldenDigest*'
 *
 * Two pooled cases run several seeds of each driver side by side on
 * RunPool: the traces are byte-identical at 1 and 4 workers, and
 * every concurrent cell tears down without leaking.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/run_pool.hh"
#include "platform/two_tier.hh"
#include "trace/invariants.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

#ifndef KLOC_WORKLOAD_GOLDEN_DIR
#error "KLOC_WORKLOAD_GOLDEN_DIR must point at tests/workload/golden"
#endif

namespace kloc {
namespace {

WorkloadConfig
tinyConfig()
{
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 2000;
    config.seed = 7;
    return config;
}

std::unique_ptr<TwoTierPlatform>
makePlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    return std::make_unique<TwoTierPlatform>(config, "klocs");
}

/** Every workload driver: Table 3 plus the thrash extension. */
const std::vector<const char *> kDrivers = {
    "rocksdb", "redis",   "filebench", "cassandra",
    "spark",   "varmail", "webserver", "thrash",
};

/** Seeds of the cells one driver runs side by side on a RunPool. */
const std::vector<uint64_t> kPoolSeeds = {7, 8, 9, 10};

WorkloadConfig
seededConfig(uint64_t seed)
{
    WorkloadConfig config = tinyConfig();
    config.seed = seed;
    return config;
}

struct TracedRun
{
    WorkloadResult result;
    std::string trace;
    std::string report;
    bool clean = false;
};

/** One traced, strictly checked run on a fresh platform (gtest-free). */
TracedRun
runTraced(const std::string &name,
          const WorkloadConfig &config = tinyConfig())
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.machine().tracer().setEnabled(true);
    InvariantChecker checker(sys.machine().tracer(), /*strict=*/true);

    TracedRun run;
    run.result = runMeasured(sys, name, config).result;
    run.trace = sys.machine().tracer().serialize();
    run.report = checker.report();
    run.clean = checker.clean();
    return run;
}

/** FNV-1a over the serialized trace. */
uint64_t
fnv1a(const std::string &data)
{
    uint64_t hash = 1469598103934665603ULL;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
digestOf(const TracedRun &run)
{
    std::ostringstream out;
    out << "trace_bytes " << run.trace.size() << "\n"
        << "trace_fnv1a " << fnv1a(run.trace) << "\n"
        << "operations " << run.result.operations << "\n"
        << "elapsed " << run.result.elapsed << "\n";
    return out.str();
}

void
compareGoldenDigest(const std::string &name, const std::string &digest)
{
    const std::string path =
        std::string(KLOC_WORKLOAD_GOLDEN_DIR) + "/" + name + ".digest";
    if (std::getenv("KLOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << digest;
        GTEST_LOG_(INFO) << "updated golden digest " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with KLOC_UPDATE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(digest, want.str())
        << "run diverged from " << path
        << "; if the change is intentional, regenerate with "
           "KLOC_UPDATE_GOLDEN=1";
}

class WorkloadParam : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadParam, RunsAndProducesThroughput)
{
    auto platform = makePlatform();
    const WorkloadResult result =
        runMeasured(platform->sys(), GetParam(), tinyConfig()).result;
    EXPECT_GT(result.operations, 0u);
    EXPECT_GT(result.elapsed, 0);
    EXPECT_GT(result.throughput(), 0.0);
}

TEST_P(WorkloadParam, DeterministicForSeed)
{
    Tick elapsed[2];
    for (int i = 0; i < 2; ++i) {
        auto platform = makePlatform();
        elapsed[i] =
            runMeasured(platform->sys(), GetParam(), tinyConfig())
                .result.elapsed;
    }
    EXPECT_EQ(elapsed[0], elapsed[1])
        << "same seed must give bit-identical virtual time";
}

TEST_P(WorkloadParam, TeardownReleasesMemory)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    runMeasured(sys, GetParam(), tinyConfig());
    EXPECT_EQ(sys.heap().liveAppPages(), 0u) << "app arena leaked";
    EXPECT_EQ(sys.fs().cachedPages(), 0u) << "page cache leaked";
    EXPECT_EQ(sys.fs().liveInodes(), 0u) << "inodes leaked";
    EXPECT_EQ(sys.net().liveSockets(), 0u) << "sockets leaked";
}

TEST_P(WorkloadParam, GoldenDigest)
{
    const TracedRun run = runTraced(GetParam());
    EXPECT_TRUE(run.clean) << run.report;
    compareGoldenDigest(GetParam(), digestOf(run));
}

/** Pool width never changes a run: 1 and 4 workers, same bytes. */
TEST_P(WorkloadParam, TracesByteIdenticalAcrossWorkerCounts)
{
    const std::string name = GetParam();
    auto sweep = [&name](unsigned workers) {
        RunPool pool(workers);
        return runIndexed<TracedRun>(
            pool, kPoolSeeds.size(), [&name](size_t i) {
                return runTraced(name, seededConfig(kPoolSeeds[i]));
            });
    };
    const std::vector<TracedRun> serial = sweep(1);
    const std::vector<TracedRun> pooled = sweep(4);
    ASSERT_EQ(serial.size(), kPoolSeeds.size());
    ASSERT_EQ(pooled.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const uint64_t seed = kPoolSeeds[i];
        EXPECT_TRUE(pooled[i].clean) << "seed " << seed << pooled[i].report;
        EXPECT_GT(serial[i].trace.size(), 0u) << "seed " << seed;
        EXPECT_EQ(serial[i].trace, pooled[i].trace)
            << name << " seed " << seed << " trace diverged at 4 workers";
        EXPECT_EQ(serial[i].result.operations, pooled[i].result.operations);
        EXPECT_EQ(serial[i].result.elapsed, pooled[i].result.elapsed);
    }
}

struct Leaks
{
    uint64_t appPages = 0;
    uint64_t cachedPages = 0;
    uint64_t inodes = 0;
    uint64_t sockets = 0;
};

/** Cells running side by side on pool workers each tear down cleanly. */
TEST_P(WorkloadParam, TeardownReleasesMemoryOnPoolWorkers)
{
    const std::string name = GetParam();
    RunPool pool(4);
    const std::vector<Leaks> leaks = runIndexed<Leaks>(
        pool, kPoolSeeds.size(), [&name](size_t i) {
            auto platform = makePlatform();
            System &sys = platform->sys();
            runMeasured(sys, name, seededConfig(kPoolSeeds[i]));
            Leaks left;
            left.appPages = sys.heap().liveAppPages();
            left.cachedPages = sys.fs().cachedPages();
            left.inodes = sys.fs().liveInodes();
            left.sockets = sys.net().liveSockets();
            return left;
        });
    ASSERT_EQ(leaks.size(), kPoolSeeds.size());
    for (size_t i = 0; i < leaks.size(); ++i) {
        const uint64_t seed = kPoolSeeds[i];
        EXPECT_EQ(leaks[i].appPages, 0u) << "seed " << seed;
        EXPECT_EQ(leaks[i].cachedPages, 0u) << "seed " << seed;
        EXPECT_EQ(leaks[i].inodes, 0u) << "seed " << seed;
        EXPECT_EQ(leaks[i].sockets, 0u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Table3, WorkloadParam,
                         ::testing::ValuesIn(kDrivers));

TEST(WorkloadShape, WebserverChurnsSocketKlocs)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "webserver", tinyConfig());
    const KlocStats &stats = sys.kloc().stats();
    // Most requests create and destroy a whole socket KLOC.
    EXPECT_GT(stats.knodesDeleted, 500u);
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
    EXPECT_GT(sys.fs().stats().reads, 0u);
}

TEST(WorkloadShape, VarmailChurnsKnodes)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "varmail", tinyConfig());
    const KlocStats &stats = sys.kloc().stats();
    EXPECT_GT(stats.knodesCreated, 100u)
        << "varmail must create many KLOCs";
    EXPECT_GT(stats.knodesDeleted, 50u)
        << "varmail must delete many KLOCs";
    // Dir buffers and dentries were exercised.
    EXPECT_GT(sys.heap().objLifetimeHist(KobjKind::DirBuffer)
                  .dist()
                  .count(),
              0u);
    EXPECT_GT(sys.heap().objLifetimeHist(KobjKind::Dentry).dist().count(),
              0u);
}

TEST(WorkloadShape, RocksDbIsFilesystemIntensive)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "rocksdb", tinyConfig());
    EXPECT_GT(sys.fs().stats().writes, 0u);
    EXPECT_GT(sys.fs().stats().reads, 0u);
    EXPECT_GT(sys.fs().journal().committedTxs(), 0u);
    EXPECT_GT(sys.tiers().cumulativeAllocPages(ObjClass::PageCache), 0u);
}

TEST(WorkloadShape, RedisIsNetworkIntensive)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "redis", tinyConfig());
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
    EXPECT_GT(sys.net().stats().packetsSent, 0u);
    EXPECT_GT(sys.tiers().cumulativeAllocPages(ObjClass::SockBuf), 0u);
    // ...and periodically checkpoints to disk.
    EXPECT_GT(sys.fs().stats().writes, 0u);
}

TEST(WorkloadShape, CassandraHitsItsRowCache)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "cassandra", tinyConfig());
    // The app cache absorbs reads: user references dominate compared
    // to a pure filesystem workload's read-miss traffic.
    EXPECT_GT(sys.machine().userRefs(), 0u);
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
}

TEST(WorkloadShape, SparkWritesAndReadsItsPartitions)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "spark", tinyConfig());
    // generate writes + sort reads every partition.
    EXPECT_GT(sys.fs().stats().creates, 16u);
    EXPECT_GT(run.result.operations, 0u);
}

TEST(WorkloadShape, SmallInputShrinksFootprint)
{
    WorkloadConfig large = tinyConfig();
    WorkloadConfig small = tinyConfig();
    small.smallInput = true;

    uint64_t pages[2];
    int i = 0;
    for (const auto &config : {large, small}) {
        auto platform = makePlatform();
        System &sys = platform->sys();
        auto workload = makeWorkload("rocksdb", config);
        workload->setup(sys);
        pages[i++] =
            sys.tiers().cumulativeAllocPages(ObjClass::PageCache);
        workload->teardown(sys);
    }
    EXPECT_GT(pages[0], pages[1])
        << "Large (40GB) input must allocate more than Small (10GB)";
}

TEST(WorkloadShape, UnknownNameDies)
{
    EXPECT_DEATH(
        { makeWorkload("postgres", tinyConfig()); }, "unknown workload");
}

} // namespace
} // namespace kloc
