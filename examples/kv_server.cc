/**
 * @file
 * kv_server: a Redis-like networked key-value store on the two-tier
 * platform, comparing tiering strategies side by side.
 *
 * Demonstrates the networking half of the KLOC story: every request
 * crosses the simulated TCP stack (rx ring, skbuffs, sockets), and
 * the strategy decides where those kernel objects live.
 *
 *   $ ./kv_server [ops] [scale]
 */

#include <cstdio>
#include <limits>

#include "base/parse.hh"
#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

int
main(int argc, char **argv)
{
    const uint64_t ops =
        argc > 1 ? parseNumber("ops", argv[1], 1) : 40000;
    const unsigned scale =
        argc > 2 ? static_cast<unsigned>(parseNumber(
                       "scale", argv[2], 1,
                       std::numeric_limits<unsigned>::max()))
                 : 64;

    std::printf("kv_server: Redis-like store, %llu ops, scale 1:%u\n\n",
                static_cast<unsigned long long>(ops), scale);
    std::printf("%-18s %12s %10s %12s %12s\n", "strategy", "ops/s",
                "speedup", "early-demux", "skb pages");

    double baseline = 0;
    for (const char *policy :
         {"all_slow", "naive", "nimble", "nimble++", "klocs"}) {
        TwoTierPlatform::Config config;
        config.scale = scale;
        TwoTierPlatform platform(config, policy);
        System &sys = platform.sys();

        WorkloadConfig wl_config;
        wl_config.scale = scale;
        wl_config.operations = ops;
        const MeasuredRun run = runMeasured(sys, "redis", wl_config);
        const WorkloadResult &result = run.result;

        if (baseline == 0)
            baseline = result.throughput();
        std::printf("%-18s %12.0f %9.2fx %12llu %12llu\n",
                    policy, result.throughput(),
                    result.throughput() / baseline,
                    static_cast<unsigned long long>(
                        sys.net().stats().earlyDemuxPackets),
                    static_cast<unsigned long long>(
                        sys.tiers().cumulativeAllocPages(
                            ObjClass::SockBuf)));
    }
    std::printf("\nKLOCs pins hot socket buffers (rx ring, skb pages) in "
                "fast memory and\ndemotes checkpoint page-cache "
                "pollution as dump files close.\n");
    return 0;
}
