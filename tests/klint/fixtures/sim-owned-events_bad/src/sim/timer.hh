#ifndef KLOC_SIM_TIMER_HH
#define KLOC_SIM_TIMER_HH

#include <memory>

// Seeded violation: a periodic timer that cannot cancel its queued
// run, so each run checks a weak liveness token instead.
struct Timer
{
    void start() { _epoch = std::make_shared<int>(0); }
    void stop() { _epoch.reset(); }
    bool
    live(const std::weak_ptr<int> &epoch) const
    {
        return !epoch.expired();
    }

    std::shared_ptr<int> _epoch;
};

#endif // KLOC_SIM_TIMER_HH
