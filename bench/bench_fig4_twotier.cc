/**
 * @file
 * Figure 4, Figure 5b and Table 6: the two-tier platform grid.
 *
 * For every workload, runs all Table 5 strategies plus the AllFast /
 * AllSlow bounds and prints speedup relative to AllSlow — the same
 * series as the paper's Fig. 4 bars.
 *
 * Expected shape (paper): KLOCs outperforms Naive/Nimble/Nimble++
 * everywhere except Cassandra (where it ties Nimble++); AllFast is
 * the upper bound.
 *
 * The same runs feed two more sections:
 *  - Fig. 5b: where RocksDB's pages land and how many migrate. Per
 *    strategy, pages allocated in slow memory for page-cache and
 *    slab objects, plus fast->slow (demote) and slow->fast (promote)
 *    migration counts. The paper's claim: KLOCs allocates in slow
 *    memory far less than Naive/Nimble/Nimble++ and needs fewer
 *    migrations than Nimble++ while migrating the *right* pages
 *    (demotions dominate, ~88%).
 *  - Table 6: peak KLOC metadata footprint per workload (knodes,
 *    per-object rbtree pointers, per-CPU lists, the demote queue),
 *    scaled back to paper scale for comparison with Table 6's
 *    12-101 MB (<1% of memory).
 *
 * The (workload x strategy) grid runs on the RunPool (see
 * bench/parallel.hh); rows are printed and reported from the ordered
 * result vector, so the JSON artifact is identical at any KLOC_JOBS.
 */

#include <algorithm>

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

/** Position of @p name in @p names. */
size_t
indexOf(const std::vector<std::string> &names, const std::string &name)
{
    return static_cast<size_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    JsonReport report("fig4_twotier", config.outdir);
    const std::vector<std::string> strategies = {
        "all_slow", "naive", "nimble", "nimble++", "klocs_nomigration",
        "klocs",    "all_fast",
    };
    const std::vector<std::string> workloads = workloadNames();

    // Workload-major, strategy-minor: the order the table prints in.
    const size_t runs = workloads.size() * strategies.size();
    const auto outcomes = sweep<RunOutcome>(
        config, runs, [&](size_t i) {
            const std::string &workload = workloads[i / strategies.size()];
            const std::string &policy = strategies[i % strategies.size()];
            return runTwoTierPolicy(workload, policy, twoTierConfig(config),
                                    workloadConfig(config));
        });
    const auto outcome_of = [&](const std::string &workload,
                                const std::string &policy)
        -> const RunOutcome & {
        return outcomes[indexOf(workloads, workload) * strategies.size() +
                        indexOf(strategies, policy)];
    };

    section("Figure 4: two-tier speedup vs All Slow Mem");
    std::printf("platform: fast %llu MiB @ 1:%u bandwidth ratio, "
                "%llu ops/run, scale 1:%u\n",
                static_cast<unsigned long long>(
                    twoTierConfig(config).fastCapacity / config.scale /
                    kMiB),
                twoTierConfig(config).bandwidthRatio,
                static_cast<unsigned long long>(config.ops),
                config.scale);

    std::printf("\n%-11s", "workload");
    for (const std::string &policy : strategies)
        std::printf(" %17s", policy.c_str());
    std::printf("\n");

    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        std::printf("%-11s", workload.c_str());
        double all_slow = 0.0;
        for (size_t s = 0; s < strategies.size(); ++s) {
            const std::string &policy = strategies[s];
            const RunOutcome &outcome =
                outcomes[w * strategies.size() + s];
            if (policy == "all_slow")
                all_slow = outcome.throughput;
            std::printf(" %9.0f (%4.2fx)", outcome.throughput,
                        all_slow > 0 ? outcome.throughput / all_slow
                                     : 1.0);
            // Simulated-time throughput is machine-independent, so
            // it gates regressions; so do migration rates.
            report.add(workload + "." + policy + ".ops_per_s",
                       outcome.throughput, "ops/s", "higher", true);
            if (policy == "klocs" && all_slow > 0) {
                report.add(workload + ".klocs.speedup_vs_all_slow",
                           outcome.throughput / all_slow, "x", "higher",
                           true);
                report.add(workload + ".klocs.migrated_pages",
                           static_cast<double>(
                               outcome.migration.migratedPages),
                           "pages", "higher", true);
            }
        }
        std::printf("\n");
    }
    std::printf("\nvalues: ops/s (speedup vs all_slow)\n");

    section("Figure 5b: RocksDB slow-memory allocations and migrations");
    const std::vector<std::string> breakdown = {
        "naive", "nimble", "nimble++", "klocs_nomigration", "klocs",
    };
    std::printf("%-18s %14s %12s %10s %10s %9s\n", "strategy",
                "slow pagecache", "slow slab", "demoted", "promoted",
                "demote%");
    for (const std::string &policy : breakdown) {
        const RunOutcome &outcome = outcome_of("rocksdb", policy);
        const uint64_t total = outcome.migration.demotedPages +
                               outcome.migration.promotedPages;
        std::printf("%-18s %14llu %12llu %10llu %10llu %8.1f%%\n",
                    policy.c_str(),
                    (unsigned long long)outcome.slowPageCacheAllocPages,
                    (unsigned long long)outcome.slowSlabAllocPages,
                    (unsigned long long)outcome.migration.demotedPages,
                    (unsigned long long)outcome.migration.promotedPages,
                    total ? 100.0 *
                            static_cast<double>(
                                outcome.migration.demotedPages) /
                            static_cast<double>(total)
                          : 0.0);
        const std::string prefix = "rocksdb." + policy;
        report.add(prefix + ".slow_pagecache_pages",
                   static_cast<double>(outcome.slowPageCacheAllocPages),
                   "pages", "lower", true);
        report.add(prefix + ".slow_slab_pages",
                   static_cast<double>(outcome.slowSlabAllocPages),
                   "pages", "lower", true);
        report.add(prefix + ".demoted_pages",
                   static_cast<double>(outcome.migration.demotedPages),
                   "pages", "lower", true);
        report.add(prefix + ".promoted_pages",
                   static_cast<double>(outcome.migration.promotedPages),
                   "pages", "lower", true);
    }

    section("Table 6: KLOC metadata memory increase");
    const struct
    {
        const char *name;
        int paperMb;
    } paper[] = {{"rocksdb", 101},
                 {"redis", 83},
                 {"filebench", 44},
                 {"cassandra", 12},
                 {"spark", 43}};
    std::printf("%-11s %16s %22s %10s\n", "workload", "sim peak (KiB)",
                "at paper scale (MiB)", "paper (MB)");
    for (const auto &row : paper) {
        const Bytes peak = outcome_of(row.name, "klocs").klocPeakMetadata;
        const double sim_kib = static_cast<double>(peak) / kKiB;
        const double paper_scale_mib = static_cast<double>(peak) *
                                       config.scale /
                                       static_cast<double>(kMiB);
        std::printf("%-11s %16.1f %22.1f %10d\n", row.name, sim_kib,
                    paper_scale_mib, row.paperMb);
        report.add(std::string(row.name) + ".kloc_metadata_kib", sim_kib,
                   "KiB", "lower", true);
    }
    std::printf("\nexpected: tens of MB at paper scale, <1%% of memory\n");

    report.write();
    return 0;
}
