/**
 * @file
 * Deterministic deadline-ordered event queue for asynchronous kernel
 * work: the KLOC migration daemon, LRU scanner wakeups, journal
 * commits, and writeback all run as events, the periodic ones
 * through a Daemon (sim/daemon.hh).
 *
 * An Event is a node owned by whoever schedules it, as a kernel
 * timer or delayed work item is: it carries a plain function pointer
 * and is linked into the queue's intrusive rbtree while pending.
 * Scheduling allocates nothing, cancel() unlinks a pending node, and
 * a node's destructor cancels it, so an owner that dies takes its
 * pending work with it (cancel_delayed_work_sync).
 *
 * Events run in (deadline, schedule order), so runs are
 * bit-reproducible.
 */

#ifndef KLOC_SIM_EVENT_QUEUE_HH
#define KLOC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <limits>

#include "base/logging.hh"
#include "base/rbtree.hh"
#include "base/units.hh"

namespace kloc {

class EventQueue;

/**
 * One schedulable occurrence. Owners derive from it to carry their
 * context, and the function pointer casts back to the owner. A node
 * is pending from schedule() until it runs or is cancelled; it does
 * not move while pending, so keep nodes in members or in containers
 * that never relocate their elements.
 */
class Event
{
  public:
    using Fn = void (*)(Event &);

    explicit Event(Fn fn) : _fn(fn) {}
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    ~Event();

    /** Linked into a queue: scheduled, not yet run or cancelled. */
    bool pending() const { return _queue != nullptr; }

  private:
    friend class EventQueue;

    RbNode _hook;
    Tick _when{};
    uint64_t _seq = 0;  ///< schedule order, the tie-break at equal _when
    Fn _fn;
    EventQueue *_queue = nullptr;  ///< non-null while pending
};

/** Deadline-ordered queue of owned Event nodes. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { clear(); }

    /** Run @p event once the clock reaches @p when. */
    void
    schedule(Event &event, Tick when)
    {
        KLOC_ASSERT(!event.pending(), "event scheduled while pending");
        event._when = when;
        event._seq = _sequence++;
        event._queue = this;
        _events.insert(&event);
        if (when < _next)
            _next = when;
    }

    /**
     * Unlink @p event if pending; a no-op otherwise, including for
     * the event that is running.
     */
    void
    cancel(Event &event)
    {
        if (!event.pending())
            return;
        KLOC_ASSERT(event._queue == this, "event pending on another queue");
        unlink(event);
    }

    bool empty() const { return _events.empty(); }
    size_t size() const { return _events.size(); }

    /**
     * Deadline of the earliest pending event, or the largest Tick
     * when none is pending. A charge that leaves the clock below it
     * runs nothing.
     */
    Tick nextDeadline() const { return _next; }

    /**
     * Run every event with deadline <= @p now, in deadline order.
     * Events scheduled while draining run too if already due.
     * @return number of events executed.
     *
     * Called on every Machine::charge, and most charges find nothing
     * due, so only the test against the cached next deadline is
     * inline; the drain stays out of the charging loops.
     */
    size_t
    runDue(Tick now)
    {
        if (now < _next)
            return 0;
        return drainDue(now);
    }

    /** Unlink every pending event (between experiment runs). */
    void
    clear()
    {
        while (Event *event = _events.first())
            unlink(*event);
        _sequence = 0;
    }

  private:
    static constexpr Tick kNever{std::numeric_limits<int64_t>::max()};

    struct Order
    {
        int64_t when;
        uint64_t seq;

        bool
        operator<(const Order &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    struct OrderOf
    {
        Order
        operator()(const Event &event) const
        {
            return {event._when.value(), event._seq};
        }
    };

    void
    unlink(Event &event)
    {
        _events.erase(&event);
        event._queue = nullptr;
        const Event *first = _events.first();
        _next = first != nullptr ? first->_when : kNever;
    }

    /** runDue's loop, entered with at least one event due. */
    size_t drainDue(Tick now);

    RbTree<Event, &Event::_hook, OrderOf> _events;
    uint64_t _sequence = 0;
    Tick _next = kNever;  ///< the first pending event's deadline
};

inline Event::~Event()
{
    if (_queue != nullptr)
        _queue->cancel(*this);
}

} // namespace kloc

#endif // KLOC_SIM_EVENT_QUEUE_HH
