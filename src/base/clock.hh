/**
 * @file
 * The virtual clock that all simulated work is charged against.
 *
 * The simulator is single-threaded and deterministic: subsystems
 * advance the clock by the modelled cost of each operation (memory
 * accesses, device transfers, CPU work), and throughput is ops per
 * unit of virtual time. Asynchronous kernel work (migration daemon,
 * LRU scans, writeback) runs from the EventQueue as the clock passes
 * its deadline.
 */

#ifndef KLOC_BASE_CLOCK_HH
#define KLOC_BASE_CLOCK_HH

#include "base/logging.hh"
#include "base/units.hh"

namespace kloc {

/** Monotonic virtual clock in nanosecond Ticks. */
class VirtualClock
{
  public:
    /** Current virtual time. */
    Tick now() const { return _now; }

    /** Advance by @p delta (must be non-negative). */
    void
    advance(Tick delta)
    {
        KLOC_ASSERT(delta >= 0, "clock moved backwards by %lld",
                    static_cast<long long>(delta));
        _now += delta;
    }

    /** Reset to zero (between experiment runs). */
    void reset() { _now = Tick{}; }

  private:
    Tick _now{};
};

} // namespace kloc

#endif // KLOC_BASE_CLOCK_HH
