/**
 * @file
 * Deterministic deadline-ordered event queue for asynchronous kernel
 * work: the KLOC migration daemon, LRU scanner wakeups, journal
 * commits, and writeback all run as events, the periodic ones
 * through a Daemon (sim/daemon.hh).
 *
 * Ties are broken by insertion order so runs are bit-reproducible.
 */

#ifndef KLOC_SIM_EVENT_QUEUE_HH
#define KLOC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "base/units.hh"

namespace kloc {

/** Deadline-ordered queue of callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p fn to run once the clock reaches @p when. */
    void
    schedule(Tick when, Callback fn)
    {
        _events.push(Event{when, _sequence++, std::move(fn)});
    }

    bool empty() const { return _events.empty(); }
    size_t size() const { return _events.size(); }

    /**
     * Deadline of the earliest pending event, or the largest Tick
     * when none is pending. A charge that leaves the clock below it
     * runs nothing.
     */
    Tick
    nextDeadline() const
    {
        return _events.empty() ? Tick{std::numeric_limits<int64_t>::max()}
                               : _events.top().when;
    }

    /**
     * Run every event with deadline <= @p now, in deadline order.
     * Events scheduled while draining run too if already due.
     * @return number of events executed.
     *
     * Called on every Machine::charge, and most charges find nothing
     * due, so only the test is inline; the drain, with its callback
     * move, call and destroy, stays out of the charging loops.
     */
    size_t
    runDue(Tick now)
    {
        if (_events.empty() || _events.top().when > now)
            return 0;
        return drainDue(now);
    }

    /** Drop all pending events (between experiment runs). */
    void
    clear()
    {
        _events = {};
        _sequence = 0;
    }

  private:
    /** runDue's loop, entered with at least one event due. */
    size_t drainDue(Tick now);

    struct Event
    {
        Tick when;
        uint64_t seq;
        mutable Callback fn;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> _events;
    uint64_t _sequence = 0;
};

} // namespace kloc

#endif // KLOC_SIM_EVENT_QUEUE_HH
