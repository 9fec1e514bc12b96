/**
 * @file
 * Figure 2: prevalence of kernel objects.
 *
 *  2a: per-workload breakdown of allocated pages by class (app vs
 *      page cache vs FS slab vs network), with raw page counts.
 *  2b: app-vs-OS allocation split for Small (10 GB) and Large
 *      (40 GB) inputs.
 *  2c: share of memory *references* to kernel objects vs user data.
 *  2d: lifetimes of application pages vs slab objects vs page-cache
 *      pages (the paper: app pages minutes, slab ~36 ms, cache
 *      ~160 ms).
 *
 * Characterisation runs on the stock greedy (Naive) configuration:
 * it measures the workloads, not a tiering policy. All runs (the
 * large/small grid plus the RocksDB lifetime-detail run) execute on
 * the RunPool; tables print from the ordered results.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

struct Characterization
{
    uint64_t pagesByClass[kNumObjClasses] = {};
    uint64_t kernelRefs = 0;
    uint64_t userRefs = 0;
    double appLifetimeMs = 0;
    double slabLifetimeMs = 0;
    double cacheLifetimeMs = 0;
};

/** One row of the Fig. 2d lifetime-distribution detail table. */
struct LifetimeDetailRow
{
    const char *label = "";
    double p50Ms = 0;
    double p99Ms = 0;
    uint64_t count = 0;
};

Characterization
characterize(const BenchConfig &bench_config,
             const std::string &workload_name, bool small_input)
{
    TwoTierPlatform platform(twoTierConfig(bench_config), "naive");
    System &sys = platform.sys();

    WorkloadConfig config = workloadConfig(bench_config);
    config.smallInput = small_input;
    runMeasured(sys, workload_name, config);

    Characterization result;
    result.pagesByClass[static_cast<unsigned>(ObjClass::App)] =
        sys.heap().cumulativeAppPages();
    for (unsigned c = 1; c < kNumObjClasses; ++c) {
        result.pagesByClass[c] =
            sys.tiers().cumulativeAllocPages(static_cast<ObjClass>(c));
    }
    result.kernelRefs = sys.machine().kernelRefs();
    result.userRefs = sys.machine().userRefs();
    result.appLifetimeMs =
        sys.tiers().lifetimeHist(ObjClass::App).dist().mean() /
        kMillisecond;
    // Slab object lifetime: average across the slab-allocated kinds.
    double slab_sum = 0;
    uint64_t slab_count = 0;
    for (unsigned k = 0; k < kNumKobjKinds; ++k) {
        const auto kind = static_cast<KobjKind>(k);
        if (!kobjIsSlab(kind))
            continue;
        const auto &hist = sys.heap().objLifetimeHist(kind);
        slab_sum += hist.dist().sum();
        slab_count += hist.dist().count();
    }
    result.slabLifetimeMs =
        slab_count ? slab_sum / static_cast<double>(slab_count) /
                     kMillisecond
                   : 0;
    result.cacheLifetimeMs =
        sys.heap().objLifetimeHist(KobjKind::PageCachePage).dist().mean() /
        kMillisecond;
    return result;
}

/** The Fig. 2d detail run: RocksDB per-kind lifetime percentiles. */
std::vector<LifetimeDetailRow>
lifetimeDetail(const BenchConfig &bench_config)
{
    TwoTierPlatform platform(twoTierConfig(bench_config), "naive");
    System &sys = platform.sys();
    runMeasured(sys, "rocksdb", workloadConfig(bench_config));
    const struct
    {
        const char *label;
        KobjKind kind;
    } kinds[] = {{"journal_record", KobjKind::JournalRecord},
                 {"bio", KobjKind::Bio},
                 {"dentry", KobjKind::Dentry},
                 {"radix_node", KobjKind::RadixNode},
                 {"page_cache", KobjKind::PageCachePage}};
    std::vector<LifetimeDetailRow> rows;
    for (const auto &row : kinds) {
        const Histogram &hist = sys.heap().objLifetimeHist(row.kind);
        if (hist.dist().count() == 0)
            continue;
        LifetimeDetailRow out;
        out.label = row.label;
        out.p50Ms = static_cast<double>(hist.percentileUpperBound(0.5)) /
                    kMillisecond;
        out.p99Ms = static_cast<double>(hist.percentileUpperBound(0.99)) /
                    kMillisecond;
        out.count = hist.dist().count();
        rows.push_back(out);
    }
    return rows;
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    JsonReport report("fig2_characterization", config.outdir);
    const std::vector<std::string> names = workloadNames();

    // Run grid: per workload a large and a small characterisation,
    // plus one trailing RocksDB lifetime-detail run. Everything is
    // independent, so the whole set shares one pool.
    std::vector<std::pair<std::string, Characterization>> large(
        names.size());
    std::vector<std::pair<std::string, Characterization>> small(
        names.size());
    std::vector<LifetimeDetailRow> detail;
    {
        RunPool pool(config.jobs);
        for (size_t i = 0; i < names.size(); ++i) {
            pool.submit([&, i] {
                large[i] = {names[i], characterize(config, names[i],
                                                   false)};
            });
            pool.submit([&, i] {
                small[i] = {names[i], characterize(config, names[i],
                                                   true)};
            });
        }
        pool.submit([&] { detail = lifetimeDetail(config); });
        pool.wait();
    }

    section("Figure 2a: page allocations by class (Large inputs)");
    std::printf("%-11s %10s %10s %8s %8s %8s %8s | %s\n", "workload",
                "app", "pagecache", "journal", "fs_slab", "sock_buf",
                "block_io", "OS share");
    for (auto &[name, c] : large) {
        uint64_t total = 0, kernel = 0;
        for (unsigned i = 0; i < kNumObjClasses; ++i) {
            total += c.pagesByClass[i];
            if (isKernelClass(static_cast<ObjClass>(i)))
                kernel += c.pagesByClass[i];
        }
        const double os_share =
            total ? 100.0 * static_cast<double>(kernel) /
                    static_cast<double>(total)
                  : 0.0;
        std::printf(
            "%-11s %10llu %10llu %8llu %8llu %8llu %8llu | %5.1f%%\n",
            name.c_str(),
            (unsigned long long)c.pagesByClass[0],
            (unsigned long long)c.pagesByClass[1],
            (unsigned long long)c.pagesByClass[2],
            (unsigned long long)c.pagesByClass[3],
            (unsigned long long)c.pagesByClass[4],
            (unsigned long long)c.pagesByClass[5],
            os_share);
        report.add(name + ".os_page_share_pct", os_share, "%", "higher",
                   true);
        report.add(name + ".slab_lifetime_ms", c.slabLifetimeMs, "ms",
                   "lower", true);
        report.add(name + ".cache_lifetime_ms", c.cacheLifetimeMs, "ms",
                   "lower", true);
    }

    section("Figure 2b: OS share of page allocations, Small vs Large");
    std::printf("%-11s %12s %12s\n", "workload", "small(10GB)",
                "large(40GB)");
    for (size_t i = 0; i < large.size(); ++i) {
        auto os_share = [](const Characterization &c) {
            uint64_t total = 0, kernel = 0;
            for (unsigned j = 0; j < kNumObjClasses; ++j) {
                total += c.pagesByClass[j];
                if (isKernelClass(static_cast<ObjClass>(j)))
                    kernel += c.pagesByClass[j];
            }
            return total ? 100.0 * static_cast<double>(kernel) /
                           static_cast<double>(total)
                         : 0.0;
        };
        std::printf("%-11s %11.1f%% %11.1f%%\n",
                    large[i].first.c_str(), os_share(small[i].second),
                    os_share(large[i].second));
    }

    section("Figure 2c: share of memory references to kernel objects");
    std::printf("%-11s %10s\n", "workload", "OS refs");
    for (auto &[name, c] : large) {
        const uint64_t total = c.kernelRefs + c.userRefs;
        const double ref_share =
            total ? 100.0 * static_cast<double>(c.kernelRefs) /
                    static_cast<double>(total)
                  : 0.0;
        std::printf("%-11s %9.1f%%\n", name.c_str(), ref_share);
        report.add(name + ".kernel_ref_share_pct", ref_share, "%",
                   "higher", true);
    }

    section("Figure 2d: mean object lifetimes (ms, log-scale in paper)");
    std::printf("%-11s %12s %12s %12s\n", "workload", "app pages",
                "slab objs", "cache pages");
    for (auto &[name, c] : large) {
        std::printf("%-11s %12.1f %12.2f %12.2f\n", name.c_str(),
                    c.appLifetimeMs, c.slabLifetimeMs,
                    c.cacheLifetimeMs);
    }
    std::printf("\nlifetime distribution detail (RocksDB, ms):\n");
    std::printf("  %-16s %10s %10s %10s\n", "kind", "p50", "p99",
                "count");
    for (const LifetimeDetailRow &row : detail) {
        std::printf("  %-16s %10.2f %10.2f %10llu\n", row.label,
                    row.p50Ms, row.p99Ms,
                    (unsigned long long)row.count);
    }
    std::printf("\nexpected shape: slab objects live ~ms, cache pages "
                "somewhat longer, app pages orders of magnitude longer\n");
    report.write();
    return 0;
}
