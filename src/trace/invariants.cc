#include "trace/invariants.hh"

#include <cstdarg>
#include <cstdio>

#include "base/objclass.hh"
#include "fault/fault.hh"

namespace kloc {

namespace {

constexpr uint64_t kJournalClass =
    static_cast<uint64_t>(ObjClass::Journal);

} // namespace

InvariantChecker::InvariantChecker(Tracer &tracer, bool strict)
    : _tracer(tracer), _strict(strict)
{
    _listenerId = _tracer.addListener(
        [this](const TraceEvent &event) { consume(event); });
}

InvariantChecker::~InvariantChecker()
{
    _tracer.removeListener(_listenerId);
}

void
InvariantChecker::violation(const TraceEvent &event, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    char line[384];
    std::snprintf(line, sizeof(line), "[seq %llu @%lld %s] %s",
                  static_cast<unsigned long long>(event.seq),
                  static_cast<long long>(event.tick),
                  traceEventName(event.type), buf);
    _violations.emplace_back(line);
}

InvariantChecker::FrameState &
InvariantChecker::frameFor(uint64_t key, bool on_active_list)
{
    auto it = _frames.find(key);
    if (it != _frames.end())
        return it->second;
    // First sighting without an alloc event: the checker attached
    // mid-run. Adopt the frame with inferred state and stop trusting
    // absolute list counts.
    _sawAdoption = true;
    FrameState state;
    state.adopted = true;
    state.active = on_active_list;
    auto [pos, inserted] = _frames.emplace(key, state);
    (void)inserted;
    auto &tc = counts(traceKeyTier(key));
    if (on_active_list)
        ++tc.active;
    else
        ++tc.inactive;
    return pos->second;
}

InvariantChecker::TierCounts &
InvariantChecker::counts(int tier)
{
    if (tier < 0)
        tier = 0;
    if (static_cast<size_t>(tier) >= _tierCounts.size())
        _tierCounts.resize(static_cast<size_t>(tier) + 1);
    return _tierCounts[static_cast<size_t>(tier)];
}

void
InvariantChecker::consume(const TraceEvent &event)
{
    ++_eventsChecked;
    const uint64_t a = event.args[0];
    const uint64_t b = event.args[1];
    const uint64_t c = event.args[2];
    const uint64_t d = event.args[3];

    switch (event.type) {
      case TraceEventType::FrameAlloc: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        if (_frames.count(key)) {
            violation(event, "alloc over live frame tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (a < _tierOffline.size() && _tierOffline[a]) {
            violation(event, "allocation on offline tier %llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (_shadows.count(key)) {
            violation(event,
                      "allocation lands on live shadow copy tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (_quarantined.count(key)) {
            violation(event,
                      "allocation on quarantined block tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (_poisonVacated.count(key)) {
            violation(event,
                      "allocation on poisoned block tier=%llu pfn=%llu "
                      "before its quarantine",
                      (unsigned long long)a, (unsigned long long)b);
        }
        FrameState state;
        state.cls = d;
        _frames.emplace(key, state);
        // Fresh frames enter the inactive LRU list.
        ++counts(static_cast<int>(a)).inactive;
        break;
      }

      case TraceEventType::FrameFree: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _frames.find(key);
        if (it == _frames.end()) {
            if (_strict) {
                violation(event, "free of unknown frame tier=%llu pfn=%llu",
                          (unsigned long long)a, (unsigned long long)b);
            }
            break;
        }
        FrameState &frame = it->second;
        if (frame.trackedRefs > 0) {
            violation(event,
                      "frame tier=%llu pfn=%llu freed with %llu tracked "
                      "knode objects still referencing it",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)frame.trackedRefs);
        }
        if (frame.inflightBios > 0) {
            violation(event,
                      "frame tier=%llu pfn=%llu freed with %llu bios in "
                      "flight",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)frame.inflightBios);
        }
        if (frame.migrating) {
            violation(event, "frame tier=%llu pfn=%llu freed mid-migration",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (frame.inTxn) {
            violation(event,
                      "frame tier=%llu pfn=%llu freed inside an open "
                      "transactional copy",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (frame.pins > 0) {
            violation(event,
                      "frame tier=%llu pfn=%llu freed with %llu "
                      "unreleased pins",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)frame.pins);
        }
        if (frame.cls == kJournalClass && _journalArmed &&
            _journalWindows == 0) {
            violation(event,
                      "journal frame tier=%llu pfn=%llu freed outside a "
                      "journal commit/detach window",
                      (unsigned long long)a, (unsigned long long)b);
        }
        auto &tc = counts(static_cast<int>(a));
        if (frame.active)
            --tc.active;
        else
            --tc.inactive;
        _frames.erase(it);
        break;
      }

      case TraceEventType::BuddySplit:
      case TraceEventType::BuddyCoalesce:
        // Pure allocator bookkeeping; the buddy self-validates.
        break;

      case TraceEventType::LruActivate: {
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(a), Pfn{b}),
                                     false);
        if (frame.active) {
            violation(event, "activate of already-active frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        frame.active = true;
        auto &tc = counts(static_cast<int>(a));
        ++tc.active;
        --tc.inactive;
        break;
      }

      case TraceEventType::LruDeactivate: {
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(a), Pfn{b}),
                                     true);
        if (!frame.active) {
            violation(event, "deactivate of inactive frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        frame.active = false;
        auto &tc = counts(static_cast<int>(a));
        --tc.active;
        ++tc.inactive;
        break;
      }

      case TraceEventType::LruScan: {
        if (_sawAdoption)
            break;  // absolute counts unknown after a mid-run attach
        const auto &tc = counts(static_cast<int>(a));
        if (tc.active != static_cast<int64_t>(c) ||
            tc.inactive != static_cast<int64_t>(d)) {
            violation(event,
                      "LRU count mismatch on tier %llu: model "
                      "%lld/%lld vs scanned %llu/%llu (active/inactive)",
                      (unsigned long long)a,
                      (long long)tc.active, (long long)tc.inactive,
                      (unsigned long long)c, (unsigned long long)d);
        }
        break;
      }

      case TraceEventType::MigStart: {
        const uint64_t src_key = traceFrameKey(static_cast<int>(a), Pfn{b});
        const uint64_t dst_key = traceFrameKey(static_cast<int>(c), Pfn{d});
        FrameState frame = frameFor(src_key, false);
        if (frame.inflightBios > 0) {
            violation(event,
                      "migration of frame tier=%llu pfn=%llu with %llu "
                      "bios in flight",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)frame.inflightBios);
        }
        if (frame.migrating) {
            violation(event, "nested migration of frame tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (frame.pins > 0) {
            violation(event,
                      "migration of pinned frame tier=%llu pfn=%llu "
                      "(%llu pins)",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)frame.pins);
        }
        if (c < _tierOffline.size() && _tierOffline[c]) {
            violation(event,
                      "migration arrives on offline tier %llu pfn=%llu",
                      (unsigned long long)c, (unsigned long long)d);
        }
        // A committed copy's open window closes with the move.
        frame.inTxn = false;
        _frames.erase(src_key);
        if (_frames.count(dst_key)) {
            violation(event, "migration lands on live frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)c, (unsigned long long)d);
            break;
        }
        if (_shadows.count(dst_key)) {
            violation(event,
                      "migration lands on live shadow copy tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)c, (unsigned long long)d);
        }
        if (_quarantined.count(dst_key)) {
            violation(event,
                      "migration lands on quarantined block tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)c, (unsigned long long)d);
        }
        if (_poisonVacated.count(dst_key)) {
            violation(event,
                      "migration lands on poisoned block tier=%llu "
                      "pfn=%llu before its quarantine",
                      (unsigned long long)c, (unsigned long long)d);
        }
        // The only migration a poisoned frame may make is its
        // containment evacuation, which scrubs the poison. The bad
        // block it leaves may go nowhere but quarantine.
        if (frame.poisoned)
            _poisonVacated.insert(src_key);
        frame.poisoned = false;
        // List membership follows the frame to the destination tier.
        // counts() may grow the tier vector; materialize both entries
        // before taking references or the first one dangles.
        counts(static_cast<int>(a));
        counts(static_cast<int>(c));
        auto &from = counts(static_cast<int>(a));
        auto &to = counts(static_cast<int>(c));
        if (frame.active) {
            --from.active;
            ++to.active;
        } else {
            --from.inactive;
            ++to.inactive;
        }
        frame.migrating = true;
        _frames.emplace(dst_key, frame);
        break;
      }

      case TraceEventType::MigComplete: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _frames.find(key);
        if (it == _frames.end()) {
            if (_strict) {
                violation(event, "migration complete for unknown frame "
                          "tier=%llu pfn=%llu",
                          (unsigned long long)a, (unsigned long long)b);
            }
            break;
        }
        if (!it->second.migrating) {
            violation(event, "migration complete without start for frame "
                      "tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        it->second.migrating = false;
        break;
      }

      case TraceEventType::KnodeMap:
        if (_knodes.count(a)) {
            violation(event, "duplicate knode for inode %llu",
                      (unsigned long long)a);
            break;
        }
        _knodes.emplace(a, 0);
        break;

      case TraceEventType::KnodeUnmap: {
        auto it = _knodes.find(a);
        if (it == _knodes.end()) {
            if (_strict) {
                violation(event, "unmap of unknown knode inode=%llu",
                          (unsigned long long)a);
            }
            break;
        }
        if (it->second > 0) {
            violation(event, "knode inode=%llu unmapped with %llu live "
                      "tracked objects",
                      (unsigned long long)a,
                      (unsigned long long)it->second);
        }
        _knodes.erase(it);
        break;
      }

      case TraceEventType::KnodeActivate:
      case TraceEventType::KnodeInactivate:
        if (!_knodes.count(a)) {
            if (_strict) {
                violation(event, "hotness change on unknown knode "
                          "inode=%llu", (unsigned long long)a);
            } else {
                _sawAdoption = true;
                _knodes.emplace(a, 0);
            }
        }
        break;

      case TraceEventType::ObjTrack: {
        auto it = _knodes.find(a);
        if (it == _knodes.end()) {
            if (_strict) {
                violation(event, "object tracked under unknown knode "
                          "inode=%llu", (unsigned long long)a);
                break;
            }
            _sawAdoption = true;
            it = _knodes.emplace(a, 0).first;
        }
        ++it->second;
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(c), Pfn{d}),
                                     false);
        ++frame.trackedRefs;
        break;
      }

      case TraceEventType::ObjUntrack: {
        auto it = _knodes.find(a);
        if (it == _knodes.end()) {
            if (_strict) {
                violation(event, "object untracked under unknown knode "
                          "inode=%llu", (unsigned long long)a);
            }
        } else if (it->second > 0) {
            --it->second;
        } else if (_strict) {
            violation(event, "object count underflow on knode inode=%llu",
                      (unsigned long long)a);
        }
        const uint64_t key = traceFrameKey(static_cast<int>(c), Pfn{d});
        auto fit = _frames.find(key);
        if (fit == _frames.end()) {
            violation(event,
                      "knode inode=%llu untracked an object whose frame "
                      "tier=%llu pfn=%llu is already freed",
                      (unsigned long long)a, (unsigned long long)c,
                      (unsigned long long)d);
            break;
        }
        FrameState &frame = fit->second;
        if (frame.trackedRefs > 0) {
            --frame.trackedRefs;
        } else if (_strict && !frame.adopted) {
            violation(event, "tracked-ref underflow on frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)c, (unsigned long long)d);
        }
        if (frame.cls == kJournalClass && _journalArmed &&
            _journalWindows == 0) {
            violation(event,
                      "journal object released outside a commit/detach "
                      "window (inode=%llu)",
                      (unsigned long long)a);
        }
        break;
      }

      case TraceEventType::JournalCommitStart:
      case TraceEventType::JournalDetachStart:
      case TraceEventType::JournalReplayStart:
        _journalArmed = true;
        ++_journalWindows;
        break;

      case TraceEventType::JournalCommitEnd:
      case TraceEventType::JournalDetachEnd:
      case TraceEventType::JournalCrash:
      case TraceEventType::JournalCommitAbort:
      case TraceEventType::JournalReplayEnd:
        if (_journalWindows == 0) {
            violation(event, "journal window close without open");
            break;
        }
        --_journalWindows;
        break;

      case TraceEventType::BioSubmit: {
        if (_bioFrames.count(a)) {
            violation(event, "duplicate bio id %llu",
                      (unsigned long long)a);
            break;
        }
        FrameState &frame =
            frameFor(b, false);
        ++frame.inflightBios;
        _bioFrames.emplace(a, b);
        break;
      }

      case TraceEventType::BioComplete: {
        auto it = _bioFrames.find(a);
        if (it == _bioFrames.end()) {
            if (_strict) {
                violation(event, "completion of unknown bio %llu",
                          (unsigned long long)a);
            }
            break;
        }
        auto fit = _frames.find(it->second);
        if (fit != _frames.end() && fit->second.inflightBios > 0)
            --fit->second.inflightBios;
        _bioFrames.erase(it);
        break;
      }

      case TraceEventType::FramePin: {
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(a), Pfn{b}),
                                     false);
        ++frame.pins;
        break;
      }

      case TraceEventType::FrameUnpin: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _frames.find(key);
        if (it == _frames.end()) {
            violation(event, "unpin of unknown frame tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        FrameState &frame = it->second;
        if (frame.pins > 0) {
            --frame.pins;
        } else if (_strict || !frame.adopted) {
            violation(event, "unpin without pin on frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        break;
      }

      case TraceEventType::TierOffline: {
        if (a >= _tierOffline.size())
            _tierOffline.resize(a + 1, false);
        if (_tierOffline[a]) {
            violation(event, "offline of already-offline tier %llu",
                      (unsigned long long)a);
        }
        _tierOffline[a] = true;
        break;
      }

      case TraceEventType::TierOnline: {
        if (a >= _tierOffline.size())
            _tierOffline.resize(a + 1, false);
        if (!_tierOffline[a] && _strict) {
            violation(event, "online of tier %llu that was not offline",
                      (unsigned long long)a);
        }
        _tierOffline[a] = false;
        break;
      }

      case TraceEventType::MigTxnBegin: {
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(a), Pfn{b}),
                                     false);
        if (frame.inTxn) {
            violation(event,
                      "nested transactional copy on frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (frame.migrating) {
            violation(event,
                      "transactional copy of mid-migration frame "
                      "tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        frame.inTxn = true;
        break;
      }

      case TraceEventType::MigTxnAbort: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _frames.find(key);
        if (it == _frames.end()) {
            if (_strict) {
                violation(event,
                          "transactional abort on unknown frame tier=%llu "
                          "pfn=%llu",
                          (unsigned long long)a, (unsigned long long)b);
            }
            break;
        }
        if (!it->second.inTxn) {
            violation(event,
                      "transactional abort without open window on frame "
                      "tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        it->second.inTxn = false;
        break;
      }

      case TraceEventType::ShadowMake: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        if (_frames.count(key)) {
            violation(event,
                      "shadow created over live frame tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (_shadows.count(key)) {
            violation(event,
                      "shadow created over live shadow tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (_quarantined.count(key) || _poisonVacated.count(key)) {
            violation(event,
                      "shadow created on %s block tier=%llu pfn=%llu",
                      _quarantined.count(key) ? "quarantined" : "poisoned",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        _shadows.emplace(key, traceFrameKey(static_cast<int>(c), Pfn{d}));
        break;
      }

      case TraceEventType::ShadowReuse: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _shadows.find(key);
        if (it == _shadows.end()) {
            if (_strict) {
                violation(event,
                          "reuse of unknown shadow tier=%llu pfn=%llu",
                          (unsigned long long)a, (unsigned long long)b);
            }
            break;
        }
        _shadows.erase(it);
        break;
      }

      case TraceEventType::ShadowDrop: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        auto it = _shadows.find(key);
        if (it == _shadows.end()) {
            if (_strict) {
                violation(event,
                          "drop of unknown shadow tier=%llu pfn=%llu",
                          (unsigned long long)a, (unsigned long long)b);
            }
            break;
        }
        _shadows.erase(it);
        break;
      }

      case TraceEventType::FramePoison: {
        FrameState &frame = frameFor(traceFrameKey(static_cast<int>(a), Pfn{b}),
                                     false);
        if (frame.poisoned) {
            violation(event,
                      "re-poison of already-poisoned frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (c > 3) {
            violation(event, "unknown poison origin %llu",
                      (unsigned long long)c);
        }
        frame.poisoned = true;
        break;
      }

      case TraceEventType::FrameQuarantine: {
        const uint64_t key = traceFrameKey(static_cast<int>(a), Pfn{b});
        if (_frames.count(key)) {
            violation(event,
                      "quarantine of live frame tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (_shadows.count(key)) {
            violation(event,
                      "quarantine of live shadow copy tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
            break;
        }
        if (!_quarantined.insert(key).second) {
            violation(event,
                      "double quarantine of block tier=%llu pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        _poisonVacated.erase(key);
        break;
      }

      case TraceEventType::MemRecover: {
        // args: new frame key, quarantined old key, recovery source.
        if (!_frames.count(a)) {
            violation(event, "recovery into unknown frame key=%llu",
                      (unsigned long long)a);
        }
        if (!_quarantined.count(b)) {
            violation(event,
                      "recovery from unquarantined location key=%llu",
                      (unsigned long long)b);
        }
        if (c > 1) {
            violation(event, "unknown recovery source %llu",
                      (unsigned long long)c);
        }
        break;
      }

      case TraceEventType::DataLoss: {
        if (!_frames.count(traceFrameKey(static_cast<int>(a), Pfn{b})) &&
            _strict) {
            violation(event, "data loss on unknown frame tier=%llu "
                      "pfn=%llu",
                      (unsigned long long)a, (unsigned long long)b);
        }
        if (c > 3) {
            violation(event, "unknown data-loss reason %llu",
                      (unsigned long long)c);
        }
        break;
      }

      case TraceEventType::TierHealth: {
        if (a >= _tierHealth.size())
            _tierHealth.resize(a + 1, 0);
        if (b != _tierHealth[a]) {
            violation(event,
                      "health transition on tier %llu from %llu but "
                      "model says %llu",
                      (unsigned long long)a, (unsigned long long)b,
                      (unsigned long long)_tierHealth[a]);
        }
        const int64_t step =
            static_cast<int64_t>(c) - static_cast<int64_t>(b);
        if (c > 2 || (step != 1 && step != -1)) {
            violation(event,
                      "non-adjacent health transition %llu -> %llu on "
                      "tier %llu",
                      (unsigned long long)b, (unsigned long long)c,
                      (unsigned long long)a);
            _tierHealth[a] = c <= 2 ? c : _tierHealth[a];
            break;
        }
        // Hysteresis thresholds mirror TierManager's constants
        // (kDegradeScore/kFailScore/kReadmitScore/kRecoverScore);
        // tier_manager.hh points back here to keep them in sync.
        if (b == 0 && c == 1 && d < 4000) {
            violation(event,
                      "tier %llu degraded below threshold (score %llu)",
                      (unsigned long long)a, (unsigned long long)d);
        } else if (b == 1 && c == 2 && d < 16000) {
            violation(event,
                      "tier %llu failed below threshold (score %llu)",
                      (unsigned long long)a, (unsigned long long)d);
        } else if (b == 2 && c == 1 && d > 6000) {
            violation(event,
                      "tier %llu readmitted above threshold (score %llu)",
                      (unsigned long long)a, (unsigned long long)d);
        } else if (b == 1 && c == 0 && d > 1000) {
            violation(event,
                      "tier %llu recovered above threshold (score %llu)",
                      (unsigned long long)a, (unsigned long long)d);
        }
        _tierHealth[a] = c;
        break;
      }

      case TraceEventType::KlocDamaged:
        if (!_knodes.count(a)) {
            if (_strict) {
                violation(event, "damage report on unknown knode "
                          "inode=%llu", (unsigned long long)a);
            } else {
                _sawAdoption = true;
                _knodes.emplace(a, 0);
            }
        }
        break;

      case TraceEventType::SoftOffline:
        if (!_knodes.count(a) && _strict) {
            violation(event, "soft-offline of unknown knode inode=%llu",
                      (unsigned long long)a);
        }
        break;

      case TraceEventType::PoisonStorm:
        if (c > b) {
            violation(event,
                      "poison storm on tier %llu poisoned %llu frames "
                      "but only %llu were requested",
                      (unsigned long long)a, (unsigned long long)c,
                      (unsigned long long)b);
        }
        break;

      case TraceEventType::FaultInject:
        // Exhaustive over FaultSite so the fault-site-coverage klint
        // rule can anchor every injection site to a checker rule:
        // the named cases below are the contract that each site's
        // firings flow through this model.
        if (a >= static_cast<uint64_t>(FaultSite::NumSites)) {
            violation(event, "fault injection at unknown site %llu",
                      (unsigned long long)a);
            break;
        }
        switch (static_cast<FaultSite>(a)) {
          case FaultSite::DeviceRead:
          case FaultSite::DeviceWrite:
          case FaultSite::DeviceTimeout:
            // Device faults surface as BioRetry/BioError brackets.
            break;
          case FaultSite::MigrationNoSpace:
            // Surfaces as MigRetry/MigAbandon or MigTxnAbort.
            break;
          case FaultSite::JournalCommitCrash:
            // Surfaces as JournalCrash closing its commit window.
            break;
          case FaultSite::FramePoisonAccess:
          case FaultSite::FramePoisonScan:
          case FaultSite::FramePoisonCopy:
            // Surfaces as FramePoison -> quarantine/recovery events.
            break;
          case FaultSite::NumSites:
            break;  // unreachable: range-checked above
        }
        break;

      case TraceEventType::BioRetry:
      case TraceEventType::BioError:
      case TraceEventType::MigRetry:
      case TraceEventType::MigAbandon:
      case TraceEventType::TierDrain:
      case TraceEventType::PolicyRateAdapt:
        // Informational; the surrounding brackets carry the state.
        break;

      case TraceEventType::NumTypes:
        violation(event, "malformed event type");
        break;
    }
}

uint64_t
InvariantChecker::outstandingPins() const
{
    uint64_t pinned = 0;
    // klint:allow(determinism): order-independent reduction.
    for (const auto &[key, frame] : _frames) {
        (void)key;
        if (frame.pins > 0)
            ++pinned;
    }
    return pinned;
}

uint64_t
InvariantChecker::openTransactionalCopies() const
{
    uint64_t open = 0;
    // klint:allow(determinism): order-independent reduction.
    for (const auto &[key, frame] : _frames) {
        (void)key;
        if (frame.inTxn)
            ++open;
    }
    return open;
}

std::string
InvariantChecker::report() const
{
    if (_violations.empty())
        return "invariants: clean (" + std::to_string(_eventsChecked) +
               " events checked)\n";
    std::string out = "invariants: " + std::to_string(_violations.size()) +
                      " violation(s) over " +
                      std::to_string(_eventsChecked) + " events\n";
    for (const std::string &v : _violations) {
        out += "  ";
        out += v;
        out += '\n';
    }
    return out;
}

} // namespace kloc
