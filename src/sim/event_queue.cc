#include "sim/event_queue.hh"

namespace kloc {

size_t
EventQueue::drainDue(Tick now)
{
    size_t ran = 0;
    while (!_events.empty() && _events.top().when <= now) {
        // Move the callback out before popping so an event that
        // schedules new events doesn't invalidate the top().
        Callback fn = std::move(_events.top().fn);
        _events.pop();
        fn();
        ++ran;
    }
    return ran;
}

} // namespace kloc
