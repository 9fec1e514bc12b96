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

#include <algorithm>
#include <array>
#include <cstddef>

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

    /**
     * Touch @p bytes of each of @p frames[0 .. n-1] in order, each
     * exactly as touch(): the same clock, RefStats, frame fields, LRU
     * lists and trace, and every event dispatched at the same touch.
     *
     * The stretch up to the next event deadline is charged in locals
     * against a page cost per tier looked up once: a touch that ends
     * before the deadline and needs no promotion (its frame is not
     * inactive and referenced) sets the frame's timestamps, dirty bit
     * and referenced bit, and the clock and RefStats are written back
     * once per stretch (Machine::accessRun). Any other touch — an
     * event due, faults armed, a promotion, a tier past the cost
     * table — goes through touch(), and the next stretch re-reads
     * the deadline, the costs and the socket, which it may change.
     */
    void
    touchEach(Frame *const *frames, size_t n, Bytes bytes, AccessType type)
    {
        const bool write = type == AccessType::Write;
        size_t i = 0;
        while (i < n) {
            if (_machine.faults().armed()) {
                touch(frames[i++], bytes, type);
                continue;
            }
            const MemoryModel &model = _machine.memModel();
            const size_t tiers = std::min(model.tierCount(), kRunTiers);
            const int socket = _machine.currentSocket();
            std::array<Tick, kRunTiers> cost{};
            for (size_t t = 0; t < tiers; ++t) {
                cost[t] = model.accessCost(static_cast<TierId>(t), bytes,
                                           type, socket);
            }
            const Tick deadline = _machine.events().nextDeadline();
            Tick now = _machine.now();
            RefStats refs;
            for (; i < n; ++i) {
                Frame *frame = frames[i];
                const auto t = static_cast<size_t>(frame->tier.value());
                if (t >= tiers)
                    break;
                const Tick end = now + cost[t];
                const bool linked = frame->lruHook.linked();
                if (end >= deadline ||
                    (linked && !frame->onActiveList && frame->referenced))
                    break;
                now = end;
                refs.account(domainOf(frame), cost[t]);
                if (write) {
                    frame->dirty = true;
                    frame->lastWriteTick = now;
                }
                frame->lastAccessTick = now;
                if (linked)
                    frame->referenced = true;
            }
            _machine.accessRun(now, refs);
            if (i < n)
                touch(frames[i++], bytes, type);
        }
    }

    Machine &machine() { return _machine; }
    LruEngine &lru() { return _lru; }

  private:
    /** Tiers touchEach keeps a page cost for; touches of a frame on
     *  a later tier go through touch(). */
    static constexpr size_t kRunTiers = 4;

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
