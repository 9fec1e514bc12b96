/**
 * @file
 * Figure 5c: contribution of each kernel-object type to KLOCs'
 * performance.
 *
 * Starting from app-pages-only tiering (every kernel class pinned to
 * fast memory), KLOC management is enabled incrementally: +page
 * cache, +journals, +slab objects, +socket buffers, +block I/O.
 * Classes excluded from KLOCs stay pinned in fast memory.
 *
 * Paper: most workloads gain from page-cache coverage; Redis also
 * needs socket buffers; full coverage is best.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

double
runWithMask(const BenchConfig &config, const std::string &workload_name,
            uint32_t mask)
{
    TwoTierPlatform platform(twoTierConfig(config), "klocs");
    System &sys = platform.sys();
    sys.kloc().setManagedClasses(mask);
    return runMeasured(sys, workload_name, workloadConfig(config))
        .result.throughput();
}

constexpr uint32_t
bit(ObjClass cls)
{
    return 1u << static_cast<unsigned>(cls);
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    struct Step
    {
        const char *label;
        uint32_t mask;
    };
    // Cumulative inclusion order from the paper (§7.3). KlocMeta is
    // always manageable (it is KLOC's own bookkeeping).
    const uint32_t meta = bit(ObjClass::KlocMeta);
    std::vector<Step> steps;
    uint32_t mask = meta;
    steps.push_back({"app-only", mask});
    mask |= bit(ObjClass::PageCache);
    steps.push_back({"+pagecache", mask});
    mask |= bit(ObjClass::Journal);
    steps.push_back({"+journal", mask});
    mask |= bit(ObjClass::FsSlab);
    steps.push_back({"+slab", mask});
    mask |= bit(ObjClass::SockBuf);
    steps.push_back({"+sockbuf", mask});
    mask |= bit(ObjClass::BlockIo);
    steps.push_back({"+blockio", mask});

    const std::vector<std::string> workloads = workloadNames();

    // Workload-major, step-minor: the order the table prints in.
    const size_t runs = workloads.size() * steps.size();
    const auto throughputs = sweep<double>(config, runs, [&](size_t i) {
        const std::string &workload = workloads[i / steps.size()];
        const Step &step = steps[i % steps.size()];
        return runWithMask(config, workload, step.mask);
    });

    section("Figure 5c: incremental kernel-object coverage (KLOCs)");
    std::printf("%-11s", "workload");
    for (const Step &step : steps)
        std::printf(" %12s", step.label);
    std::printf("\n");

    JsonReport report("fig5c_objtypes", config.outdir);
    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        std::printf("%-11s", workload.c_str());
        double base = 0;
        for (size_t s = 0; s < steps.size(); ++s) {
            const double throughput = throughputs[w * steps.size() + s];
            if (base == 0)
                base = throughput;
            std::printf("       %4.2fx", base > 0 ? throughput / base
                                                  : 1.0);
            report.add(workload + "." + steps[s].label + ".ops_per_s",
                       throughput, "ops/s", "higher", true);
        }
        std::printf("\n");
    }
    std::printf("\nvalues: speedup vs app-only tiering\n");
    report.write();
    return 0;
}
