/**
 * @file
 * Online cross-subsystem invariant checking over the event stream.
 *
 * The InvariantChecker subscribes to a Tracer and replays every event
 * into a shadow model of frames, LRU lists, knodes, journal windows,
 * and in-flight bios. Ordering rules that no single subsystem can
 * check locally are enforced here:
 *
 *  - a frame with an in-flight bio must not start migrating
 *  - per-tier active/inactive list counts must match what LRU scans
 *    report (count consistency)
 *  - a knode must never reference a freed frame (tracked objects pin
 *    their frame's liveness), and must be empty when unmapped
 *  - journal-class frames are only released inside a journal commit,
 *    detach, or crash-replay window — commit precedes journal-frame
 *    reclaim, even across a crash and recovery
 *  - pin/unpin counts balance per frame: no unpin without a pin, no
 *    free or migration of a frame while pins are outstanding
 *  - an offlined tier receives no new allocations and no migration
 *    arrivals until it is onlined again
 *  - shadow copies (Nomad) are consistent: a shadow is never created
 *    over a live frame or a live shadow, no allocation or migration
 *    arrival lands on a live shadow location, and every reuse or drop
 *    names a shadow that exists
 *  - transactional copies bracket correctly: every MigTxnBegin is
 *    closed by exactly one MigStart (commit) or MigTxnAbort, with no
 *    nesting and no free of a frame inside an open window
 *  - hwpoison containment is sound: a frame is never poisoned twice,
 *    quarantine retires only dead locations and never the same block
 *    twice, nothing ever allocates, migrates into, or shadows onto a
 *    quarantined block, a poisoned block a frame migrated off takes no
 *    allocation, migration arrival or shadow before its quarantine
 *    (it may leave its frame only into quarantine), and every
 *    recovery names a live destination and a quarantined source
 *  - tier health moves one step at a time (healthy <-> degraded <->
 *    failed) from the state the model last saw, and every transition
 *    respects the hysteresis thresholds its score reports
 *
 * Violations are collected, not fatal, so tests can assert on the
 * full list and tools can report totals.
 */

#ifndef KLOC_TRACE_INVARIANTS_HH
#define KLOC_TRACE_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/trace.hh"

namespace kloc {

/** Subscribes to a Tracer and enforces cross-subsystem ordering. */
class InvariantChecker
{
  public:
    /**
     * Attaches to @p tracer; detaches automatically on destruction.
     *
     * In strict mode every entity must be introduced by its lifecycle
     * event before use — right for tests that attach before any
     * activity. Non-strict (the default) adopts entities first seen
     * mid-run, for tools that attach to an already-built platform.
     */
    explicit InvariantChecker(Tracer &tracer, bool strict = false);

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    ~InvariantChecker();

    /** Feed one event through the model (also used directly by tests). */
    void consume(const TraceEvent &event);

    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

    bool clean() const { return _violations.empty(); }

    uint64_t eventsChecked() const { return _eventsChecked; }

    /** Frames currently holding at least one unreleased pin. */
    uint64_t outstandingPins() const;

    /** Live non-exclusive shadow copies in the model. */
    uint64_t shadowCount() const
    {
        return static_cast<uint64_t>(_shadows.size());
    }

    /** Frames currently inside an open transactional-copy window. */
    uint64_t openTransactionalCopies() const;

    /** Blocks retired into quarantine, never to be allocated again. */
    uint64_t quarantinedCount() const
    {
        return static_cast<uint64_t>(_quarantined.size());
    }

    /** All violations joined into a printable report. */
    std::string report() const;

  private:
    struct FrameState
    {
        uint64_t cls = ~0ULL;    ///< ObjClass value; ~0 when adopted
        bool active = false;     ///< on the active LRU list
        bool migrating = false;  ///< between MigStart and MigComplete
        bool adopted = false;    ///< first seen mid-run (no alloc event)
        bool inTxn = false;      ///< open transactional-copy window
        bool poisoned = false;   ///< hwpoison pending containment
        uint64_t trackedRefs = 0;///< knode objects referencing it
        uint64_t inflightBios = 0;
        uint64_t pins = 0;       ///< frame_pin minus frame_unpin
    };

    struct TierCounts
    {
        int64_t active = 0;
        int64_t inactive = 0;
    };

    void violation(const TraceEvent &event, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

    /** Frame for @p key, adopting it if unseen (mid-run attach). */
    FrameState &frameFor(uint64_t key, bool on_active_list);

    TierCounts &counts(int tier);

    Tracer &_tracer;
    bool _strict = false;
    int _listenerId = 0;

    std::unordered_map<uint64_t, FrameState> _frames;  ///< by frame key
    std::unordered_map<uint64_t, uint64_t> _knodes;    ///< inode -> objs
    std::unordered_map<uint64_t, uint64_t> _bioFrames; ///< bio -> key
    std::unordered_map<uint64_t, uint64_t> _shadows;   ///< shadow -> fast key
    std::vector<TierCounts> _tierCounts;
    std::vector<bool> _tierOffline;    ///< per-tier offline flag
    std::unordered_set<uint64_t> _quarantined; ///< retired frame keys
    /** Blocks a poisoned frame migrated off, awaiting quarantine. */
    std::unordered_set<uint64_t> _poisonVacated;
    std::vector<uint64_t> _tierHealth; ///< per-tier health (0/1/2)
    int _journalWindows = 0;   ///< nesting depth of commit/detach windows
    bool _journalArmed = false;///< a journal subsystem has shown itself
    bool _sawAdoption = false; ///< attach was mid-run; relax counting
    uint64_t _eventsChecked = 0;
    std::vector<std::string> _violations;
};

} // namespace kloc

#endif // KLOC_TRACE_INVARIANTS_HH
