/**
 * @file
 * Daemon: one periodic kernel thread on the Machine's event queue.
 * The KLOC migration daemon (§4.5), writeback, the journal commit
 * timer, the tiering and NUMA-balancing scans and the tier-health
 * decay all run as one.
 *
 * The event queue cannot unschedule, so the Daemon owns the liveness
 * and restart rules:
 *  - start(period) arms it: the body first runs @p period later.
 *    Starting a running daemon does nothing.
 *  - Each run calls the body with that period. The body returns the
 *    delay to its next run, and the daemon reschedules at now() +
 *    delay once the body is done. A body may stop() its own daemon.
 *  - stop() and destruction turn the pending run into a no-op, so
 *    stop() then start() within one period runs one chain, never two.
 *
 * An owner declares its Daemon as its last member, so the daemon dies
 * before anything its body touches.
 */

#ifndef KLOC_SIM_DAEMON_HH
#define KLOC_SIM_DAEMON_HH

#include <functional>
#include <memory>

#include "base/logging.hh"
#include "sim/machine.hh"

namespace kloc {

/** A periodic tick that may be stopped, restarted or destroyed at any
 *  time, its own body included. */
class Daemon
{
  public:
    /** One run: gets start()'s period, returns the delay to the next. */
    using Body = std::function<Tick(Tick period)>;

    explicit Daemon(Machine &machine) : _machine(machine) {}
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Install the body; set it before the first start(). */
    void setBody(Body body) { _body = std::move(body); }

    void
    start(Tick period)
    {
        KLOC_ASSERT(_body != nullptr, "daemon started without a body");
        if (running())
            return;
        _period = period;
        _epoch = std::make_shared<const int>(0);
        arm(period);
    }

    void stop() { _epoch.reset(); }

    bool running() const { return _epoch != nullptr; }

  private:
    void
    arm(Tick delay)
    {
        KLOC_ASSERT(delay > 0, "daemon delay must be positive");
        _machine.events().schedule(
            _machine.now() + delay,
            [this, epoch = std::weak_ptr<const int>(_epoch)] {
                if (epoch.expired())
                    return;  // stopped, restarted or destroyed since
                const Tick next = _body(_period);
                // A body that stopped, restarted or destroyed the
                // daemon ended this epoch's chain.
                if (!epoch.expired())
                    arm(next);
            });
    }

    Machine &_machine;
    Body _body;
    Tick _period{};
    /** Non-null while running, fresh per start(). A pending run holds
     *  a weak reference to its epoch's token and finds it expired
     *  after a stop(), a restart or the daemon's destruction. */
    std::shared_ptr<const int> _epoch;
};

} // namespace kloc

#endif // KLOC_SIM_DAEMON_HH
