/**
 * @file
 * The shared run protocol for experiments: start daemons, set up,
 * quiesce, measure, tear down, on the two-tier platform (runMeasured)
 * and on the Optane platform (runOptaneMeasured). Build the platform
 * for its policy (the platform constructors apply it), then call one
 * of these; nothing else is the caller's to sequence.
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

#include <memory>
#include <string>
#include <utility>

#include "platform/optane.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

namespace kloc {

/** Settle window between load and measurement. */
inline constexpr Tick kQuiesceWindow = 200 * kMillisecond;

/**
 * A measured run's outcome, holding the workload's loaded state:
 * while it lives, the dataset's files, app arena and sockets stay for
 * the caller to inspect. Its destructor tears the workload down, so
 * a discarded MeasuredRun tears down at once.
 */
class MeasuredRun
{
  public:
    MeasuredRun(System &sys, std::unique_ptr<Workload> workload,
                const WorkloadResult &result)
        : result(result), _sys(sys), _workload(std::move(workload))
    {}

    ~MeasuredRun() { _workload->teardown(_sys); }

    MeasuredRun(const MeasuredRun &) = delete;
    MeasuredRun &operator=(const MeasuredRun &) = delete;

    const WorkloadResult result;

  private:
    System &_sys;
    std::unique_ptr<Workload> _workload;
};

/**
 * Run the workload @p name at @p config on @p sys under its installed
 * policy: start the FS daemons (a no-op when already running), set
 * up, sync, quiesce, measure.
 *
 * The whole run sits inside a TraceBatch window: the workload op
 * loop is the biggest bulk emitter there is, and staging amortises
 * ring insertion across every event it produces. Seq and tick are
 * stamped at emit time, so the serialized trace is byte-identical
 * to an unbatched run.
 */
inline MeasuredRun
runMeasured(System &sys, const std::string &name,
            const WorkloadConfig &config)
{
    auto workload = makeWorkload(name, config);
    sys.fs().startDaemons();
    WorkloadResult result;
    {
        TraceBatch batch(sys.machine().tracer());
        workload->setup(sys);
        sys.fs().syncAll();
        sys.machine().charge(kQuiesceWindow);
        result = workload->run(sys);
    }
    return MeasuredRun(sys, std::move(workload), result);
}

/**
 * The Fig. 5a protocol (§6.2) under @p platform's installed policy:
 * turn the streaming interferer on, set up on the interfered socket 0
 * (socket 1 with @p ideal_local, the figure's upper bound), move the
 * task to socket 1, quiesce, run one warm-up pass (the paper measures
 * steady state), then measure.
 */
inline MeasuredRun
runOptaneMeasured(OptanePlatform &platform, const std::string &name,
                  const WorkloadConfig &config, bool ideal_local = false)
{
    System &sys = platform.sys();
    auto workload = makeWorkload(name, config);
    platform.setInterference(true);
    sys.fs().startDaemons();
    WorkloadResult result;
    {
        TraceBatch batch(sys.machine().tracer());
        platform.moveTaskToSocket(ideal_local ? 1 : 0);
        workload->setCpus(platform.taskCpus());
        workload->setup(sys);
        sys.fs().syncAll();
        platform.moveTaskToSocket(1);
        workload->setCpus(platform.taskCpus());
        sys.machine().charge(kQuiesceWindow);
        workload->run(sys);
        result = workload->run(sys);
    }
    return MeasuredRun(sys, std::move(workload), result);
}

} // namespace kloc

#endif // KLOC_WORKLOAD_RUNNER_HH
