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
 * Unlike Fig. 5a (runOptaneMeasured) the job is measured without a
 * warm-up pass: one sort, as a batch job would run it.
 */

#include <cstdio>
#include <cstdlib>

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
    OptanePlatform platform(config);
    System &sys = platform.sys();
    platform.setInterference(true);
    platform.applyPolicyByName(policy);
    sys.fs().startDaemons();

    WorkloadConfig wl_config;
    wl_config.scale = scale;

    // Phase 1 (generate) runs on the interfered socket 0.
    platform.moveTaskToSocket(0);
    wl_config.cpus = platform.taskCpus();
    auto workload = makeWorkload("spark", wl_config);
    workload->setup(sys);
    sys.fs().syncAll();

    // The scheduler escapes the interference before the sort.
    platform.moveTaskToSocket(1);
    workload->setCpus(platform.taskCpus());
    sys.machine().charge(kQuiesceWindow);
    const WorkloadResult result = workload->run(sys);

    std::printf("%-12s %10.0f chunks/s   %8llu pages migrated\n", policy,
                result.throughput(),
                static_cast<unsigned long long>(
                    sys.migrator().stats().migratedPages));
    workload->teardown(sys);
    return result.throughput();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned scale =
        argc > 1 ? static_cast<unsigned>(std::strtoul(argv[1], nullptr,
                                                      10))
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
