#include "sim/event_queue.hh"

namespace kloc {

size_t
EventQueue::drainDue(Tick now)
{
    size_t ran = 0;
    while (_next <= now) {
        Event &event = *_events.first();
        // Unlinked before it runs: its function may schedule it again,
        // and its owner may cancel or destroy it.
        unlink(event);
        event._fn(event);
        ++ran;
    }
    return ran;
}

} // namespace kloc
