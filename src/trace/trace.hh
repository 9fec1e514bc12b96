/**
 * @file
 * Deterministic event tracing for the simulator — an ftrace-style
 * ring buffer of typed, Tick-stamped records.
 *
 * Subsystems emit TraceEvents through the Machine's Tracer at the
 * points where placement-relevant state changes: frame alloc/free,
 * LRU transitions, migration start/complete, knode lifecycle, journal
 * commits, and bio submission. Events carry only stable integers
 * (tiers, pfns, inode ids) — never pointers or host time — so two
 * identical runs produce byte-identical serialized traces, which is
 * what makes golden-trace regression testing possible.
 *
 * Tracing is off by default; every emit site reduces to one predicted
 * branch while disabled. Listeners (the InvariantChecker) observe
 * every event even after the ring wraps.
 */

#ifndef KLOC_TRACE_TRACE_HH
#define KLOC_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/units.hh"
#include "base/clock.hh"

namespace kloc {

/** Every traced state transition, grouped by emitting subsystem. */
enum class TraceEventType : uint8_t {
    // mem/tier_manager: frame lifecycle.
    FrameAlloc = 0,     ///< tier, pfn, order, class
    FrameFree,          ///< tier, pfn, order, class
    // mem/buddy_allocator: block bookkeeping.
    BuddySplit,         ///< tier, pfn, order (freed high half)
    BuddyCoalesce,      ///< tier, pfn, order (merged block)
    // mem/lru: list transitions and scans.
    LruActivate,        ///< tier, pfn
    LruDeactivate,      ///< tier, pfn
    LruScan,            ///< tier, scanned, active, inactive
    // mem/migration: successful moves (start/complete bracket).
    MigStart,           ///< src_tier, src_pfn, dst_tier, dst_pfn
    MigComplete,        ///< dst_tier, dst_pfn, pages, demote
    // core/kloc_manager: knode lifecycle and object tracking.
    KnodeMap,           ///< inode
    KnodeUnmap,         ///< inode
    KnodeActivate,      ///< inode
    KnodeInactivate,    ///< inode
    ObjTrack,           ///< inode, kind, frame_tier, frame_pfn
    ObjUntrack,         ///< inode, kind, frame_tier, frame_pfn
    // fs/journal: transaction windows.
    JournalCommitStart, ///< tx, records, pages, foreground
    JournalCommitEnd,   ///< tx
    JournalDetachStart, ///< inode
    JournalDetachEnd,   ///< inode
    // fs/block_layer: I/O brackets.
    BioSubmit,          ///< bio, frame_key, sector, write
    BioComplete,        ///< bio
    // fault/*: injection and the recovery machinery it exercises.
    FaultInject,        ///< site, fire#
    FramePin,           ///< tier, pfn
    FrameUnpin,         ///< tier, pfn
    BioRetry,           ///< bio, attempt, backoff
    BioError,           ///< bio, attempts
    MigRetry,           ///< src_tier, src_pfn, dst_tier, attempt
    MigAbandon,         ///< tier, pfn, dst_tier, reason
    TierOffline,        ///< tier
    TierOnline,         ///< tier
    TierDrain,          ///< tier, moved_pages, stranded
    JournalCrash,       ///< tx, pages_written
    JournalCommitAbort, ///< tx
    JournalReplayStart, ///< tx, records, pages
    JournalReplayEnd,   ///< tx, ok
    // mem/migration: Nomad-style transactional promotion windows.
    MigTxnBegin,        ///< src_tier, src_pfn, dst_tier
    MigTxnAbort,        ///< src_tier, src_pfn, dst_tier, reason
    // mem/tier_manager: non-exclusive shadow copy lifecycle.
    ShadowMake,         ///< tier, pfn, fast_tier, fast_pfn
    ShadowReuse,        ///< tier, pfn, fast_tier, fast_pfn
    ShadowDrop,         ///< tier, pfn, reason
    // policy/*: adaptive-rate decisions (Jenga).
    PolicyRateAdapt,    ///< rate, reused, sampled
    // mem/*: hwpoison containment — poisoned frames, quarantine,
    // recovery, and the per-tier health state machine.
    FramePoison,        ///< tier, pfn, origin, class
    FrameQuarantine,    ///< tier, pfn, order
    MemRecover,         ///< frame_key, old_key, source
    DataLoss,           ///< tier, pfn, reason, class
    TierHealth,         ///< tier, from, to, score
    KlocDamaged,        ///< inode, tier, pfn
    SoftOffline,        ///< inode, moved
    PoisonStorm,        ///< tier, requested, poisoned
    NumTypes
};

inline constexpr unsigned kNumTraceEventTypes =
    static_cast<unsigned>(TraceEventType::NumTypes);

/** Stable serialization name of @p type (e.g. "frame_alloc"). */
const char *traceEventName(TraceEventType type);

/** Number of meaningful args for @p type (0..4). */
unsigned traceEventArgCount(TraceEventType type);

/** Serialization field names for @p type's args. */
const char *const *traceEventArgNames(TraceEventType type);

/** One traced state transition. */
struct TraceEvent
{
    uint64_t seq = 0;   ///< emission order (monotonic from 0)
    Tick tick{};        ///< virtual time of emission
    TraceEventType type = TraceEventType::NumTypes;
    uint64_t args[4] = {};

    bool
    operator==(const TraceEvent &other) const
    {
        return seq == other.seq && tick == other.tick &&
               type == other.type && args[0] == other.args[0] &&
               args[1] == other.args[1] && args[2] == other.args[2] &&
               args[3] == other.args[3];
    }

    bool operator!=(const TraceEvent &other) const { return !(*this == other); }
};

/**
 * Pack a frame identity into one arg. Pfns are frame-space indices
 * (far below 2^48) and tier ids small non-negative integers, so the
 * pair fits one u64 and remains run-to-run stable.
 */
constexpr uint64_t
traceFrameKey(int tier, Pfn pfn)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(tier)) << 48) | pfn;
}

constexpr int
traceKeyTier(uint64_t key)
{
    return static_cast<int>(key >> 48);
}

constexpr Pfn
traceKeyPfn(uint64_t key)
{
    return Pfn{key & ((1ULL << 48) - 1)};
}

/** Render one event as a stable single-line record. */
std::string traceEventToString(const TraceEvent &event);

/**
 * Parse a line produced by traceEventToString().
 * @return false on malformed input (out is unspecified then).
 */
bool parseTraceEvent(const std::string &line, TraceEvent &out);

/**
 * Parse a whole serialized trace; '#' comment lines and blank lines
 * are skipped. Stops and returns what it has on a malformed line.
 */
std::vector<TraceEvent> parseTrace(const std::string &text);

class TraceBatch;

/** Fixed-capacity ring buffer of trace events plus live listeners. */
class Tracer
{
  public:
    using Listener = std::function<void(const TraceEvent &)>;

    static constexpr size_t kDefaultCapacity = 1 << 16;

    /** Staging slots available to an open TraceBatch window. */
    static constexpr size_t kBatchCapacity = 128;

    explicit Tracer(const VirtualClock &clock) : _clock(clock) {}

    bool enabled() const { return _enabled; }

    void setEnabled(bool on);

    /**
     * Resize the ring (drops currently buffered events). The
     * capacity is rounded up to a power of two so the wrap-around
     * index on the per-event fast path is a mask, not a division.
     */
    void setCapacity(size_t capacity);

    size_t capacity() const { return _capacity; }

    /**
     * Record one event if tracing is enabled (hot-path entry).
     * Inside a TraceBatch window the event is staged — stamped with
     * its seq/tick immediately but delivered to the ring and the
     * listeners in bulk when the window flushes — so batched and
     * direct emission produce byte-identical serialized traces.
     */
    void
    emit(TraceEventType type, uint64_t a = 0, uint64_t b = 0,
         uint64_t c = 0, uint64_t d = 0)
    {
        if (__builtin_expect(_enabled, 0)) {
            if (_batchDepth)
                stage(type, a, b, c, d);
            else
                record(type, a, b, c, d);
        }
    }

    /**
     * Deliver every staged event to the ring and listeners now.
     * Useful mid-window before handing control somewhere that will
     * inspect the buffered trace; a no-op with nothing staged.
     */
    void flushBatch();

    /** Staged-but-undelivered events in the open batch window. */
    size_t stagedCount() const { return _stagedCount; }

    /** Events emitted since construction/clear (including dropped). */
    uint64_t emitted() const { return _emitted; }

    /** Events lost to ring wrap-around. */
    uint64_t dropped() const { return _dropped; }

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Drop buffered events and reset seq/drop counters. */
    void clear();

    /**
     * Subscribe to every recorded event (called after buffering).
     * @return id for removeListener.
     */
    int addListener(Listener listener);

    void removeListener(int id);

    /**
     * Render the buffered events as a diffable text artifact: a
     * header comment followed by one line per event.
     */
    std::string serialize() const;

  private:
    friend class TraceBatch;

    void record(TraceEventType type, uint64_t a, uint64_t b, uint64_t c,
                uint64_t d);

    /** Stamp seq/tick now, park the record until the window flushes. */
    void
    stage(TraceEventType type, uint64_t a, uint64_t b, uint64_t c,
          uint64_t d)
    {
        if (_stagedCount == kBatchCapacity)
            flushBatch();
        TraceEvent &event = _staged[_stagedCount++];
        event.seq = _emitted++;
        event.tick = _clock.now();
        event.type = type;
        event.args[0] = a;
        event.args[1] = b;
        event.args[2] = c;
        event.args[3] = d;
    }

    /** Bulk ring insert + listener fan-out for a pre-stamped run. */
    void emitBatch(const TraceEvent *events, size_t count);

    void beginBatch() { ++_batchDepth; }

    void
    endBatch()
    {
        if (--_batchDepth == 0)
            flushBatch();
    }

    const VirtualClock &_clock;
    bool _enabled = false;
    size_t _capacity = kDefaultCapacity;
    size_t _mask = kDefaultCapacity - 1;
    std::vector<TraceEvent> _ring;
    size_t _next = 0;          ///< ring slot for the next event
    uint64_t _emitted = 0;
    uint64_t _dropped = 0;
    unsigned _batchDepth = 0;  ///< nested TraceBatch windows open
    size_t _stagedCount = 0;
    std::array<TraceEvent, kBatchCapacity> _staged;
    int _nextListenerId = 1;
    std::vector<std::pair<int, Listener>> _listeners;
};

/**
 * RAII batch window for hot loops that emit many events back to back
 * (LRU scans, migration batches). While a window is open, every
 * Tracer::emit stages its event instead of immediately touching the
 * ring and running listener callbacks; the run is delivered in one
 * pass when the outermost window closes (or the staging area fills).
 * Seq and tick are stamped at emit time, so the resulting trace is
 * byte-identical to unbatched emission — windows only defer listener
 * delivery, never reorder it. Windows nest; only the outermost close
 * flushes.
 */
class TraceBatch
{
  public:
    explicit TraceBatch(Tracer &tracer) : _tracer(tracer)
    {
        _tracer.beginBatch();
    }

    TraceBatch(const TraceBatch &) = delete;
    TraceBatch &operator=(const TraceBatch &) = delete;

    ~TraceBatch() { _tracer.endBatch(); }

    /** Deliver staged events now (e.g. for a mid-loop trace read). */
    void flush() { _tracer.flushBatch(); }

  private:
    Tracer &_tracer;
};

} // namespace kloc

#endif // KLOC_TRACE_TRACE_HH
