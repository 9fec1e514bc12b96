/**
 * @file
 * Shared run protocols for experiments: setup, quiesce, measure, on
 * the two-tier platform (runMeasured) and on the Optane platform
 * (runOptaneMeasured).
 *
 * Between the load phase and the measured phase every configuration
 * gets the same treatment: dirty state is flushed and the virtual
 * clock advances through a settle window so daemons (writeback,
 * journal commit, LRU scans, the KLOC migration daemon) reach steady
 * state. Without this, configurations whose load phase happens to be
 * slower enter measurement with less background debt and win for the
 * wrong reason.
 */

#ifndef KLOC_WORKLOAD_RUNNER_HH
#define KLOC_WORKLOAD_RUNNER_HH

#include "platform/optane.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

namespace kloc {

/** Settle window between load and measurement. */
inline constexpr Tick kQuiesceWindow = 200 * kMillisecond;

/**
 * Run @p workload on @p sys under the currently installed strategy:
 * setup, quiesce, measure. The caller tears down afterwards (or
 * reuses the loaded state for more measurements).
 *
 * The whole run sits inside a TraceBatch window: the workload op
 * loop is the biggest bulk emitter there is, and staging amortises
 * ring insertion across every event it produces. Seq and tick are
 * stamped at emit time, so the serialized trace is byte-identical
 * to an unbatched run.
 */
inline WorkloadResult
runMeasured(System &sys, Workload &workload)
{
    TraceBatch batch(sys.machine().tracer());
    workload.setup(sys);
    sys.fs().syncAll();
    sys.machine().charge(kQuiesceWindow);
    return workload.run(sys);
}

/**
 * The Fig. 5a protocol (§6.2) under @p platform's installed policy:
 * set up on the interfered socket 0 (socket 1 with @p ideal_local,
 * the figure's upper bound), move the task to socket 1, quiesce, run
 * one warm-up pass (the paper measures steady state), then measure.
 * The caller tears down afterwards.
 */
inline WorkloadResult
runOptaneMeasured(OptanePlatform &platform, Workload &workload,
                  bool ideal_local = false)
{
    System &sys = platform.sys();
    TraceBatch batch(sys.machine().tracer());
    platform.moveTaskToSocket(ideal_local ? 1 : 0);
    workload.setCpus(platform.taskCpus());
    workload.setup(sys);
    sys.fs().syncAll();
    platform.moveTaskToSocket(1);
    workload.setCpus(platform.taskCpus());
    sys.machine().charge(kQuiesceWindow);
    workload.run(sys);
    return workload.run(sys);
}

} // namespace kloc

#endif // KLOC_WORKLOAD_RUNNER_HH
