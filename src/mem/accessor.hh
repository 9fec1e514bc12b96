/**
 * @file
 * MemAccessor: the single funnel for simulated memory touches.
 *
 * Charges the timing cost of an access against the frame's current
 * tier and keeps the LRU engine's referenced bits up to date, so
 * placement (which tier) and policy (what the LRU sees) both flow
 * from the same call.
 */

#ifndef KLOC_MEM_ACCESSOR_HH
#define KLOC_MEM_ACCESSOR_HH

#include "mem/lru.hh"
#include "sim/machine.hh"

namespace kloc {

/** Charges memory touches and maintains reference bits. */
class MemAccessor
{
  public:
    MemAccessor(Machine &machine, LruEngine &lru)
        : _machine(machine), _lru(lru)
    {}

    /**
     * Touch @p bytes of @p frame. Charges tier cost, attributes the
     * reference to kernel/user per the frame's class, and informs
     * the LRU engine.
     */
    void
    touch(Frame *frame, Bytes bytes, AccessType type)
    {
        _machine.access(frame->tier, bytes, type, domainOf(frame));
        if (type == AccessType::Write) {
            frame->dirty = true;
            frame->lastWriteTick = _machine.now();
        }
        _lru.onAccessed(frame);
    }

    /**
     * Take up to @p n touches of @p frame, each exactly as touch():
     * the same clock, RefStats, frame fields, LRU lists and trace,
     * and every event dispatched at the same touch.
     *
     * Once the frame's LRU standing is settled (LruEngine::
     * touchSettled) and no poison consult can be due (faults
     * unarmed), the touches that end before the next event deadline
     * change nothing but the clock, RefStats and the frame's
     * timestamps and dirty bit, so they are charged in one step. The
     * touch that makes an event due goes through touch(). Until the
     * standing settles, or while faults are armed, each call takes
     * one touch through touch().
     *
     * Returns after any touch that may have run an event, a poison
     * consult or a promotion: an event or a containment may move or
     * free the frame, so the caller re-reads it and calls again for
     * the rest.
     * @return touches taken: at least one when @p n > 0.
     */
    size_t
    touchN(Frame *frame, Bytes bytes, AccessType type, size_t n)
    {
        if (n == 0)
            return 0;
        if (!LruEngine::touchSettled(frame) || _machine.faults().armed()) {
            touch(frame, bytes, type);
            return 1;
        }
        const Tick cost = _machine.memModel().accessCost(
            frame->tier, bytes, type, _machine.currentSocket());
        const Tick deadline = _machine.events().nextDeadline();
        // Count the touches that end before the deadline by compare
        // and add: a division would put the divider back on the
        // per-touch path.
        size_t quiet = 0;
        for (Tick end = _machine.now() + cost; quiet < n && end < deadline;
             end += cost)
            ++quiet;
        if (quiet > 0) {
            _machine.accessRepeated(cost, domainOf(frame), quiet);
            if (type == AccessType::Write) {
                frame->dirty = true;
                frame->lastWriteTick = _machine.now();
            }
            frame->lastAccessTick = _machine.now();
            if (quiet == n)
                return n;
        }
        touch(frame, bytes, type);
        return quiet + 1;
    }

    Machine &machine() { return _machine; }
    LruEngine &lru() { return _lru; }

  private:
    static RefDomain
    domainOf(const Frame *frame)
    {
        return isKernelClass(frame->objClass) ? RefDomain::Kernel
                                              : RefDomain::User;
    }

    Machine &_machine;
    LruEngine &_lru;
};

} // namespace kloc

#endif // KLOC_MEM_ACCESSOR_HH
