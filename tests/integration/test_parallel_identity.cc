/**
 * @file
 * Parallel-vs-serial byte-identity: the run executor must be
 * invisible in the output. A bench-style sweep executed on RunPool
 * with 1, 4, and 8 workers has to produce results that are
 * byte-identical to a plain serial loop — both the formatted
 * kloc-bench-v1 metric rows (doubles printed with the %.17g format
 * report.hh uses) and the serialized event traces.
 *
 * This is the enforcement point for the determinism contract in
 * bench/parallel.hh and docs/PERF.md: completion order, worker count
 * and scheduling jitter must never reach the results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "base/run_pool.hh"
#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

/** What one grid cell contributes to the artifacts. */
struct CellOutput
{
    std::string rows;   ///< formatted metric rows, report.hh style
    std::string trace;  ///< full serialized event trace
};

struct Cell
{
    std::string workload;
    std::string policy;
};

/** Small but non-trivial grid: two workloads x two strategies. */
std::vector<Cell>
identityGrid()
{
    return {
        {"rocksdb", "naive"},
        {"rocksdb", "klocs"},
        {"redis", "naive"},
        {"redis", "klocs"},
    };
}

/**
 * One shared-nothing measured run with tracing on, like the bench
 * binaries do per configuration, capturing both the metrics and the
 * trace bytes.
 */
CellOutput
runCell(const Cell &cell)
{
    TwoTierPlatform::Config platform_config;
    platform_config.scale = 256;
    TwoTierPlatform platform(platform_config, cell.policy);
    System &sys = platform.sys();
    sys.machine().tracer().setEnabled(true);

    WorkloadConfig workload_config;
    workload_config.scale = 256;
    workload_config.operations = 2000;
    const WorkloadResult result =
        runMeasured(sys, cell.workload, workload_config).result;

    CellOutput out;
    char row[160];
    const auto add = [&](const char *name, double value) {
        std::snprintf(row, sizeof(row), "%s.%s.%s=%.17g\n",
                      cell.workload.c_str(), cell.policy.c_str(),
                      name, value);
        out.rows += row;
    };
    add("ops_per_s", result.throughput());
    add("migrated_pages",
        static_cast<double>(sys.migrator().stats().migratedPages));
    add("demoted_pages",
        static_cast<double>(sys.migrator().stats().demotedPages));
    add("kernel_refs", static_cast<double>(sys.machine().kernelRefs()));
    out.trace = sys.machine().tracer().serialize();
    return out;
}

/** Concatenated artifacts of a sweep at @p workers pool workers. */
CellOutput
sweepArtifacts(unsigned workers)
{
    const std::vector<Cell> grid = identityGrid();
    RunPool pool(workers);
    const std::vector<CellOutput> outputs = runIndexed<CellOutput>(
        pool, grid.size(), [&grid](size_t i) { return runCell(grid[i]); });
    CellOutput merged;
    for (const CellOutput &out : outputs) {
        merged.rows += out.rows;
        merged.trace += out.trace;
    }
    return merged;
}

class ParallelIdentity : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ParallelIdentity, PooledSweepMatchesSerialByteForByte)
{
    // Serial reference: a plain loop on this thread, no pool at all.
    const std::vector<Cell> grid = identityGrid();
    CellOutput serial;
    for (const Cell &cell : grid) {
        const CellOutput out = runCell(cell);
        serial.rows += out.rows;
        serial.trace += out.trace;
    }
    ASSERT_FALSE(serial.rows.empty());
    ASSERT_FALSE(serial.trace.empty());

    const CellOutput pooled = sweepArtifacts(GetParam());
    // Metric rows first: small, so a mismatch prints usefully.
    EXPECT_EQ(pooled.rows, serial.rows);
    // Traces compare as one blob; report only the divergence point.
    ASSERT_EQ(pooled.trace.size(), serial.trace.size());
    if (pooled.trace != serial.trace) {
        size_t at = 0;
        while (at < serial.trace.size() &&
               pooled.trace[at] == serial.trace[at])
            ++at;
        FAIL() << "traces diverge at byte " << at << " of "
               << serial.trace.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelIdentity,
                         ::testing::Values(1u, 4u, 8u));

/**
 * Two pooled sweeps at different worker counts must also match each
 * other — catches nondeterminism that happens to cancel against the
 * serial path (e.g. both pool runs sharing a stale cache).
 */
TEST(ParallelIdentityCross, WorkerCountsAgree)
{
    const CellOutput four = sweepArtifacts(4);
    const CellOutput eight = sweepArtifacts(8);
    EXPECT_EQ(four.rows, eight.rows);
    EXPECT_EQ(four.trace == eight.trace, true)
        << "trace bytes differ between 4 and 8 workers";
}

} // namespace
} // namespace kloc
