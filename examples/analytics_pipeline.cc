/**
 * @file
 * analytics_pipeline: a Spark-like terasort on the Optane
 * Memory-Mode platform, showing the AutoNUMA story of Fig. 5a.
 *
 * A streaming interferer loads socket 0 while the job starts there;
 * the scheduler then moves the job to socket 1. Stock AutoNUMA
 * migrates only application pages — the job's page cache and other
 * kernel objects stay behind on the loaded socket unless KLOCs
 * moves them.
 *
 *   $ ./analytics_pipeline [scale]
 *
 * The job runs the Fig. 5a protocol (runOptaneMeasured): it loads
 * its input on socket 0, moves, sorts once to warm up, and the
 * second sort is measured.
 */

#include <cstdio>
#include <limits>

#include "base/parse.hh"
#include "platform/optane.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

namespace {

double
runJob(const char *policy, unsigned scale)
{
    OptanePlatform::Config config;
    config.scale = scale;
    OptanePlatform platform(config, policy);

    WorkloadConfig wl_config;
    wl_config.scale = scale;
    const MeasuredRun run = runOptaneMeasured(platform, "spark", wl_config);

    std::printf("%-12s %10.0f chunks/s   %8llu pages migrated\n", policy,
                run.result.throughput(),
                static_cast<unsigned long long>(
                    platform.sys().migrator().stats().migratedPages));
    return run.result.throughput();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned scale =
        argc > 1 ? static_cast<unsigned>(parseNumber(
                       "scale", argv[1], 1,
                       std::numeric_limits<unsigned>::max()))
                 : 128;
    std::printf("analytics_pipeline: terasort on Optane Memory Mode "
                "(scale 1:%u)\n\n", scale);

    const double base = runJob("static", scale);
    const double autonuma = runJob("autonuma", scale);
    const double klocs = runJob("klocs", scale);

    std::printf("\nspeedup over static: autonuma %.2fx, klocs %.2fx\n",
                autonuma / base, klocs / base);
    return 0;
}
