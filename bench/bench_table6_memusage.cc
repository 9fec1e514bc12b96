/**
 * @file
 * Table 6: KLOC metadata memory overhead per workload.
 *
 * Reports the peak KLOC metadata footprint (knodes, per-object
 * rbtree pointers, per-CPU lists, migration queues), scaled back to
 * paper scale for comparison with Table 6's 12-101 MB (<1% of
 * memory).
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const struct
    {
        const char *name;
        int paperMb;
    } paper[] = {{"rocksdb", 101},
                 {"redis", 83},
                 {"filebench", 44},
                 {"cassandra", 12},
                 {"spark", 43}};
    const size_t runs = sizeof(paper) / sizeof(paper[0]);

    const auto outcomes = sweep<RunOutcome>(config, runs, [&](size_t i) {
        return runTwoTierPolicy(paper[i].name, "klocs",
                                twoTierConfig(config),
                                workloadConfig(config));
    });

    section("Table 6: KLOC metadata memory increase");
    std::printf("%-11s %16s %22s %10s\n", "workload", "sim peak (KiB)",
                "at paper scale (MiB)", "paper (MB)");
    JsonReport report("table6_memusage", config.outdir);
    for (size_t i = 0; i < runs; ++i) {
        const auto &row = paper[i];
        const RunOutcome &outcome = outcomes[i];
        const double sim_kib =
            static_cast<double>(outcome.klocPeakMetadata) / kKiB;
        const double paper_scale_mib =
            static_cast<double>(outcome.klocPeakMetadata) *
            config.scale / static_cast<double>(kMiB);
        std::printf("%-11s %16.1f %22.1f %10d\n", row.name, sim_kib,
                    paper_scale_mib, row.paperMb);
        report.add(std::string(row.name) + ".kloc_metadata_kib", sim_kib,
                   "KiB", "lower", true);
    }
    std::printf("\nexpected: tens of MB at paper scale, <1%% of memory\n");
    report.write();
    return 0;
}
