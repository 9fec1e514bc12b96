/**
 * @file
 * tier_explorer: interactive sweep over fast-memory capacity and
 * bandwidth ratio for one workload and strategy — a CLI version of
 * the Fig. 6 sensitivity study.
 *
 *   $ ./tier_explorer [workload] [policy] [ops]
 *
 * where policy is any two-tier registry name (`klocsim list`).
 *
 * e.g.  ./tier_explorer rocksdb klocs 40000
 */

#include <cstdio>
#include <string>

#include "base/parse.hh"
#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

namespace {

double
run(const std::string &workload_name, const std::string &policy,
    Bytes capacity, unsigned ratio, uint64_t ops)
{
    TwoTierPlatform::Config config;
    config.scale = 64;
    config.fastCapacity = capacity;
    config.bandwidthRatio = ratio;
    TwoTierPlatform platform(config, policy);

    WorkloadConfig wl_config;
    wl_config.scale = 64;
    wl_config.operations = ops;
    return runMeasured(platform.sys(), workload_name, wl_config)
        .result.throughput();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "rocksdb";
    const std::string policy = argc > 2 ? argv[2] : "klocs";
    const uint64_t ops =
        argc > 3 ? parseNumber("ops", argv[3], 1) : 40000;

    std::printf("tier_explorer: %s under %s, %llu ops "
                "(speedup vs all_slow at each point)\n\n",
                workload.c_str(), policy.c_str(),
                static_cast<unsigned long long>(ops));

    std::printf("%-12s", "fast \\ bw");
    for (const unsigned ratio : {8u, 4u, 2u})
        std::printf("      1:%u", ratio);
    std::printf("\n");
    for (const Bytes capacity : {4 * kGiB, 8 * kGiB, 16 * kGiB,
                                 32 * kGiB}) {
        std::printf("%3llu GB      ",
                    static_cast<unsigned long long>(capacity / kGiB));
        for (const unsigned ratio : {8u, 4u, 2u}) {
            const double slow =
                run(workload, "all_slow", capacity, ratio, ops);
            const double fast =
                run(workload, policy, capacity, ratio, ops);
            std::printf("   %5.2fx", slow > 0 ? fast / slow : 1.0);
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    return 0;
}
