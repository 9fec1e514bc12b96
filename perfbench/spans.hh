/**
 * @file
 * Pairs the simulator's Start/End trace brackets into spans.
 *
 * The subsystems emit brackets such as JournalCommitStart/End (keyed
 * by transaction), JournalDetachStart/End (inode), BioSubmit/Complete
 * (bio id) and MigStart/MigComplete (destination frame). A span is the
 * virtual time between a Start and the End with the same bracket kind
 * and key. Brackets of one kind and key nest last-in first-out.
 *
 * Only virtual ticks are used. Inside a TraceBatch window the tracer
 * delivers events to listeners up to Tracer::kBatchCapacity events
 * after they were emitted, so a host timestamp taken in a listener
 * says nothing about when the event happened; the tick stamped at
 * emission does.
 */

#ifndef KLOC_PERFBENCH_SPANS_HH
#define KLOC_PERFBENCH_SPANS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hh"

namespace kloc::perfbench {

/** The bracket kinds the benchmark pairs. */
enum class SpanKind : uint8_t {
    JournalCommit = 0,
    JournalDetach,
    Bio,
    Migration,
    NumKinds
};

inline constexpr unsigned kNumSpanKinds =
    static_cast<unsigned>(SpanKind::NumKinds);

/** One closed bracket. */
struct Span
{
    SpanKind kind = SpanKind::NumKinds;
    uint64_t key = 0;
    Tick start{};
    Tick end{};
    uint64_t startSeq = 0;  ///< seq of the Start event

    Tick duration() const { return end - start; }
};

/** Which side of which bracket @p event is, and its key. */
struct BracketEdge
{
    SpanKind kind;
    bool start;
    uint64_t key;
};

/** Classify @p event; nullopt when it is not a bracket edge. */
inline std::optional<BracketEdge>
bracketEdge(const TraceEvent &event)
{
    const uint64_t *a = event.args;
    switch (event.type) {
      case TraceEventType::JournalCommitStart:
        return BracketEdge{SpanKind::JournalCommit, true, a[0]};
      case TraceEventType::JournalCommitEnd:
        return BracketEdge{SpanKind::JournalCommit, false, a[0]};
      case TraceEventType::JournalDetachStart:
        return BracketEdge{SpanKind::JournalDetach, true, a[0]};
      case TraceEventType::JournalDetachEnd:
        return BracketEdge{SpanKind::JournalDetach, false, a[0]};
      case TraceEventType::BioSubmit:
        return BracketEdge{SpanKind::Bio, true, a[0]};
      case TraceEventType::BioComplete:
        return BracketEdge{SpanKind::Bio, false, a[0]};
      case TraceEventType::MigStart:
        return BracketEdge{SpanKind::Migration, true,
                           traceFrameKey(static_cast<int>(a[2]), Pfn{a[3]})};
      case TraceEventType::MigComplete:
        return BracketEdge{SpanKind::Migration, false,
                           traceFrameKey(static_cast<int>(a[0]), Pfn{a[1]})};
      default:
        return std::nullopt;
    }
}

/**
 * Streaming Start/End matcher. Feed events in emission (seq) order —
 * the order every Tracer listener sees, batched or not.
 */
class SpanPairer
{
  public:
    /** @return the span @p event closes, if it closes one. */
    std::optional<Span>
    consume(const TraceEvent &event)
    {
        const auto edge = bracketEdge(event);
        if (!edge)
            return std::nullopt;
        const auto kind = static_cast<unsigned>(edge->kind);
        if (edge->start) {
            _open[kind][edge->key].emplace_back(event.tick, event.seq);
            return std::nullopt;
        }
        const auto it = _open[kind].find(edge->key);
        if (it == _open[kind].end()) {
            ++_orphanEnds[kind];
            return std::nullopt;
        }
        const auto [tick, seq] = it->second.back();
        it->second.pop_back();
        if (it->second.empty())
            _open[kind].erase(it);
        return Span{edge->kind, edge->key, tick, event.tick, seq};
    }

    /** Starts still waiting for their End (unmatched tails). */
    uint64_t
    openCount(SpanKind kind) const
    {
        uint64_t total = 0;
        for (const auto &[key, stack] : _open[static_cast<unsigned>(kind)])
            total += stack.size();
        return total;
    }

    /** Ends that arrived with no open Start of the same key. */
    uint64_t
    orphanEnds(SpanKind kind) const
    {
        return _orphanEnds[static_cast<unsigned>(kind)];
    }

  private:
    /** Per kind: key -> stack of (start tick, start seq). */
    std::array<std::unordered_map<uint64_t,
                                  std::vector<std::pair<Tick, uint64_t>>>,
               kNumSpanKinds>
        _open;
    std::array<uint64_t, kNumSpanKinds> _orphanEnds{};
};

} // namespace kloc::perfbench

#endif // KLOC_PERFBENCH_SPANS_HH
