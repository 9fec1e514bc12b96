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
        const RefDomain domain = isKernelClass(frame->objClass)
            ? RefDomain::Kernel
            : RefDomain::User;
        _machine.access(frame->tier, bytes, type, domain);
        if (type == AccessType::Write) {
            frame->dirty = true;
            frame->lastWriteTick = _machine.now();
        }
        _lru.onAccessed(frame);
    }

    Machine &machine() { return _machine; }
    LruEngine &lru() { return _lru; }

  private:
    Machine &_machine;
    LruEngine &_lru;
};

} // namespace kloc

#endif // KLOC_MEM_ACCESSOR_HH
