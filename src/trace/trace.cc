#include "trace/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "base/logging.hh"

namespace kloc {

namespace {

struct EventSpec
{
    const char *name;
    unsigned argCount;
    const char *argNames[4];
};

const EventSpec kEventSpecs[kNumTraceEventTypes] = {
    {"frame_alloc",          4, {"tier", "pfn", "order", "class"}},
    {"frame_free",           4, {"tier", "pfn", "order", "class"}},
    {"buddy_split",          3, {"tier", "pfn", "order", nullptr}},
    {"buddy_coalesce",       3, {"tier", "pfn", "order", nullptr}},
    {"lru_activate",         2, {"tier", "pfn", nullptr, nullptr}},
    {"lru_deactivate",       2, {"tier", "pfn", nullptr, nullptr}},
    {"lru_scan",             4, {"tier", "scanned", "active", "inactive"}},
    {"mig_start",            4, {"src_tier", "src_pfn", "dst_tier",
                                 "dst_pfn"}},
    {"mig_complete",         4, {"dst_tier", "dst_pfn", "pages", "demote"}},
    {"knode_map",            1, {"inode", nullptr, nullptr, nullptr}},
    {"knode_unmap",          1, {"inode", nullptr, nullptr, nullptr}},
    {"knode_activate",       1, {"inode", nullptr, nullptr, nullptr}},
    {"knode_inactivate",     1, {"inode", nullptr, nullptr, nullptr}},
    {"obj_track",            4, {"inode", "kind", "ftier", "fpfn"}},
    {"obj_untrack",          4, {"inode", "kind", "ftier", "fpfn"}},
    {"journal_commit_start", 4, {"tx", "records", "pages", "fg"}},
    {"journal_commit_end",   1, {"tx", nullptr, nullptr, nullptr}},
    {"journal_detach_start", 1, {"inode", nullptr, nullptr, nullptr}},
    {"journal_detach_end",   1, {"inode", nullptr, nullptr, nullptr}},
    {"bio_submit",           4, {"bio", "frame", "sector", "write"}},
    {"bio_complete",         1, {"bio", nullptr, nullptr, nullptr}},
    {"fault_inject",         2, {"site", "fire", nullptr, nullptr}},
    {"frame_pin",            2, {"tier", "pfn", nullptr, nullptr}},
    {"frame_unpin",          2, {"tier", "pfn", nullptr, nullptr}},
    {"bio_retry",            3, {"bio", "attempt", "backoff", nullptr}},
    {"bio_error",            2, {"bio", "attempts", nullptr, nullptr}},
    {"mig_retry",            4, {"src_tier", "src_pfn", "dst_tier",
                                 "attempt"}},
    {"mig_abandon",          4, {"tier", "pfn", "dst_tier", "reason"}},
    {"tier_offline",         1, {"tier", nullptr, nullptr, nullptr}},
    {"tier_online",          1, {"tier", nullptr, nullptr, nullptr}},
    {"tier_drain",           3, {"tier", "moved", "stranded", nullptr}},
    {"journal_crash",        2, {"tx", "written", nullptr, nullptr}},
    {"journal_commit_abort", 1, {"tx", nullptr, nullptr, nullptr}},
    {"journal_replay_start", 3, {"tx", "records", "pages", nullptr}},
    {"journal_replay_end",   2, {"tx", "ok", nullptr, nullptr}},
    {"mig_txn_begin",        3, {"src_tier", "src_pfn", "dst_tier",
                                 nullptr}},
    {"mig_txn_abort",        4, {"src_tier", "src_pfn", "dst_tier",
                                 "reason"}},
    {"shadow_make",          4, {"tier", "pfn", "ftier", "fpfn"}},
    {"shadow_reuse",         4, {"tier", "pfn", "ftier", "fpfn"}},
    {"shadow_drop",          3, {"tier", "pfn", "reason", nullptr}},
    {"policy_rate_adapt",    3, {"rate", "reused", "sampled", nullptr}},
    {"frame_poison",         4, {"tier", "pfn", "origin", "class"}},
    {"frame_quarantine",     3, {"tier", "pfn", "order", nullptr}},
    {"mem_recover",          3, {"frame", "old", "source", nullptr}},
    {"data_loss",            4, {"tier", "pfn", "reason", "class"}},
    {"tier_health",          4, {"tier", "from", "to", "score"}},
    {"kloc_damaged",         3, {"inode", "tier", "pfn", nullptr}},
    {"soft_offline",         2, {"inode", "moved", nullptr, nullptr}},
    {"poison_storm",         3, {"tier", "requested", "poisoned",
                                 nullptr}},
};

const EventSpec &
spec(TraceEventType type)
{
    const auto index = static_cast<unsigned>(type);
    KLOC_ASSERT(index < kNumTraceEventTypes, "bad trace event type %u",
                index);
    return kEventSpecs[index];
}

} // namespace

const char *
traceEventName(TraceEventType type)
{
    return spec(type).name;
}

unsigned
traceEventArgCount(TraceEventType type)
{
    return spec(type).argCount;
}

const char *const *
traceEventArgNames(TraceEventType type)
{
    return spec(type).argNames;
}

std::string
traceEventToString(const TraceEvent &event)
{
    const EventSpec &s = spec(event.type);
    char buf[256];
    int len = std::snprintf(buf, sizeof(buf), "%" PRIu64 " @%" PRId64 " %s",
                            event.seq, static_cast<int64_t>(event.tick),
                            s.name);
    for (unsigned i = 0; i < s.argCount; ++i) {
        len += std::snprintf(buf + len, sizeof(buf) - len,
                             " %s=%" PRIu64, s.argNames[i], event.args[i]);
    }
    return std::string(buf, static_cast<size_t>(len));
}

bool
parseTraceEvent(const std::string &line, TraceEvent &out)
{
    std::istringstream in(line);
    std::string tickTok, name;
    if (!(in >> out.seq >> tickTok >> name))
        return false;
    if (tickTok.empty() || tickTok[0] != '@')
        return false;
    out.tick = Tick{std::strtoll(tickTok.c_str() + 1, nullptr, 10)};

    out.type = TraceEventType::NumTypes;
    for (unsigned t = 0; t < kNumTraceEventTypes; ++t) {
        if (name == kEventSpecs[t].name) {
            out.type = static_cast<TraceEventType>(t);
            break;
        }
    }
    if (out.type == TraceEventType::NumTypes)
        return false;

    const EventSpec &s = spec(out.type);
    out.args[0] = out.args[1] = out.args[2] = out.args[3] = 0;
    for (unsigned i = 0; i < s.argCount; ++i) {
        std::string field;
        if (!(in >> field))
            return false;
        const size_t eq = field.find('=');
        if (eq == std::string::npos ||
            field.compare(0, eq, s.argNames[i]) != 0) {
            return false;
        }
        out.args[i] = std::strtoull(field.c_str() + eq + 1, nullptr, 10);
    }
    return true;
}

std::vector<TraceEvent>
parseTrace(const std::string &text)
{
    std::vector<TraceEvent> events;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        TraceEvent event;
        if (!parseTraceEvent(line, event))
            break;
        events.push_back(event);
    }
    return events;
}

void
Tracer::setEnabled(bool on)
{
    _enabled = on;
    // Pre-size the ring so the steady-state insert never pays a
    // vector growth reallocation.
    if (on && _ring.capacity() < _capacity)
        _ring.reserve(_capacity);
}

void
Tracer::setCapacity(size_t capacity)
{
    KLOC_ASSERT(capacity > 0, "trace ring needs capacity");
    size_t pow2 = 1;
    while (pow2 < capacity)
        pow2 <<= 1;
    _capacity = pow2;
    _mask = pow2 - 1;
    _ring.clear();
    _ring.shrink_to_fit();
    if (_enabled)
        _ring.reserve(_capacity);
    _next = 0;
}

void
Tracer::record(TraceEventType type, uint64_t a, uint64_t b, uint64_t c,
               uint64_t d)
{
    TraceEvent event;
    event.seq = _emitted++;
    event.tick = _clock.now();
    event.type = type;
    event.args[0] = a;
    event.args[1] = b;
    event.args[2] = c;
    event.args[3] = d;

    if (_ring.size() < _capacity) {
        _ring.push_back(event);
    } else {
        // Ring is full: overwrite the oldest slot.
        _ring[_next] = event;
        _next = (_next + 1) & _mask;
        ++_dropped;
    }

    for (const auto &[id, listener] : _listeners)
        listener(event);
}

void
Tracer::flushBatch()
{
    if (_stagedCount == 0)
        return;
    emitBatch(_staged.data(), _stagedCount);
    _stagedCount = 0;
}

void
Tracer::emitBatch(const TraceEvent *events, size_t count)
{
    // Append while there is room, then overwrite oldest slots in at
    // most two contiguous spans (the wrap splits the run once), so
    // the steady-state full-ring path is bulk copies, not a
    // per-event wrap check.
    const size_t room = _capacity - _ring.size();
    const size_t take = count < room ? count : room;
    _ring.insert(_ring.end(), events, events + take);
    for (size_t i = take; i < count;) {
        const size_t span = std::min(count - i, _capacity - _next);
        std::copy(events + i, events + i + span, _ring.begin() + _next);
        _next = (_next + span) & _mask;
        i += span;
    }
    _dropped += count - take;

    if (!_listeners.empty()) {
        for (size_t i = 0; i < count; ++i) {
            for (const auto &[id, listener] : _listeners)
                listener(events[i]);
        }
    }
}

std::vector<TraceEvent>
Tracer::events() const
{
    KLOC_ASSERT(_stagedCount == 0,
                "reading the trace inside an open batch window; "
                "flushBatch() first");
    std::vector<TraceEvent> out;
    out.reserve(_ring.size());
    // _next is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < _ring.size(); ++i)
        out.push_back(_ring[(_next + i) % _ring.size()]);
    return out;
}

void
Tracer::clear()
{
    _ring.clear();
    _next = 0;
    _emitted = 0;
    _dropped = 0;
    _stagedCount = 0;
}

int
Tracer::addListener(Listener listener)
{
    const int id = _nextListenerId++;
    _listeners.emplace_back(id, std::move(listener));
    return id;
}

void
Tracer::removeListener(int id)
{
    for (size_t i = 0; i < _listeners.size(); ++i) {
        if (_listeners[i].first == id) {
            _listeners.erase(_listeners.begin() +
                             static_cast<ptrdiff_t>(i));
            return;
        }
    }
}

std::string
Tracer::serialize() const
{
    std::string out = "# kloc-trace v1 events=" +
                      std::to_string(_ring.size()) +
                      " dropped=" + std::to_string(_dropped) + "\n";
    for (const TraceEvent &event : events()) {
        out += traceEventToString(event);
        out += '\n';
    }
    return out;
}

} // namespace kloc
