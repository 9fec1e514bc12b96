/**
 * @file
 * Daemon: one periodic kernel thread on the Machine's event queue.
 * The KLOC migration daemon (§4.5), writeback, the journal commit
 * timer, the tiering and NUMA-balancing scans and the tier-health
 * decay all run as one.
 *
 * A Daemon is one Event node, re-armed after every run:
 *  - start(period) arms it: the body first runs @p period later.
 *    Starting a running daemon does nothing.
 *  - Each run calls the body with that period. The body returns the
 *    delay to its next run, and the daemon reschedules at now() +
 *    delay once the body is done. A body may stop() or restart its
 *    own daemon, but not destroy it.
 *  - stop() cancels the pending run, and so does destruction, so
 *    stop() then start() within one period runs one chain, never two.
 *
 * A run allocates nothing. An owner whose members charge time as
 * they are destroyed stops its daemon in its own destructor body,
 * before those members go.
 */

#ifndef KLOC_SIM_DAEMON_HH
#define KLOC_SIM_DAEMON_HH

#include <functional>

#include "base/logging.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"

namespace kloc {

/** A periodic tick that may be stopped, restarted or destroyed at any
 *  time; its body may stop or restart it. */
class Daemon : private Event
{
  public:
    /** One run: gets start()'s period, returns the delay to the next. */
    using Body = std::function<Tick(Tick period)>;

    explicit Daemon(Machine &machine) : Event(&Daemon::fire), _machine(machine)
    {}

    /** Install the body; set it before the first start(). */
    void setBody(Body body) { _body = std::move(body); }

    void
    start(Tick period)
    {
        KLOC_ASSERT(_body != nullptr, "daemon started without a body");
        if (_running)
            return;
        _running = true;
        _period = period;
        arm(period);
    }

    void
    stop()
    {
        _running = false;
        _machine.events().cancel(*this);
    }

    bool running() const { return _running; }

  private:
    static void
    fire(Event &event)
    {
        Daemon &self = static_cast<Daemon &>(event);
        const Tick next = self._body(self._period);
        // A body that stopped the daemon ended the chain; one that
        // restarted it has armed the new chain already.
        if (self._running && !self.pending())
            self.arm(next);
    }

    void
    arm(Tick delay)
    {
        KLOC_ASSERT(delay > 0, "daemon delay must be positive");
        _machine.events().schedule(*this, _machine.now() + delay);
    }

    Machine &_machine;
    Body _body;
    Tick _period{};
    bool _running = false;  ///< from start() to stop()
};

} // namespace kloc

#endif // KLOC_SIM_DAEMON_HH
