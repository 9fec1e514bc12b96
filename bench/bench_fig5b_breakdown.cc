/**
 * @file
 * Figure 5b: where RocksDB's pages land and how many migrate.
 *
 * For each strategy, reports pages allocated in slow memory for
 * page-cache and slab objects, plus fast->slow (demote) and
 * slow->fast (promote) migration counts. The paper's claim: KLOCs
 * allocates in slow memory far less than Naive/Nimble/Nimble++ and
 * needs fewer migrations than Nimble++ while migrating the *right*
 * pages (demotions dominate, ~88%).
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> strategies = {
        "naive", "nimble", "nimble++", "klocs_nomigration", "klocs",
    };

    const auto outcomes = sweep<RunOutcome>(
        config, strategies.size(), [&](size_t i) {
            return runTwoTierPolicy("rocksdb", strategies[i],
                                    twoTierConfig(config),
                                    workloadConfig(config));
        });

    section("Figure 5b: RocksDB slow-memory allocations and migrations");
    std::printf("%-18s %14s %12s %10s %10s %9s\n", "strategy",
                "slow pagecache", "slow slab", "demoted", "promoted",
                "demote%");
    JsonReport report("fig5b_breakdown", config.outdir);
    for (size_t s = 0; s < strategies.size(); ++s) {
        const std::string &policy = strategies[s];
        const RunOutcome &outcome = outcomes[s];
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
    report.write();
    return 0;
}
