#include "mem/migration.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kloc {

const char *
txnAbortReasonName(TxnAbortReason reason)
{
    switch (reason) {
      case TxnAbortReason::WriteRecent: return "write_recent";
      case TxnAbortReason::NoSpace:     return "no_space";
      case TxnAbortReason::Blocked:     return "blocked";
    }
    return "unknown";
}

MigrationEngine::MigrationEngine(Machine &machine, TierManager &tiers,
                                 LruEngine &lru)
    : _machine(machine), _tiers(tiers), _lru(lru)
{
    // The engine is the containment authority for poison faults
    // surfaced on the access/scan paths, and the drain authority for
    // tiers whose health fails. The destructor uninstalls it, so a
    // dead engine is never called.
    KLOC_ASSERT(_lru._migrator == nullptr && _tiers._migrator == nullptr,
                "a second MigrationEngine over one TierManager");
    _lru._migrator = this;
    _tiers._migrator = this;
}

MigrationEngine::~MigrationEngine()
{
    _lru._migrator = nullptr;
    _tiers._migrator = nullptr;
}

void
MigrationEngine::setParallelism(unsigned width)
{
    KLOC_ASSERT(width >= 1, "migration parallelism below 1");
    _parallelism = width;
}

namespace {

/** True when every MigrateResult has exactly one tally row. */
constexpr bool
everyResultTalliedOnce()
{
    for (unsigned r = 0; r <= static_cast<unsigned>(MigrateResult::Poisoned);
         ++r) {
        unsigned rows = 0;
        for (const MigrationStatField &field : kMigrationStatFields)
            rows += field.tallies == static_cast<MigrateResult>(r) ? 1 : 0;
        if (rows != 1)
            return false;
    }
    return true;
}

static_assert(everyResultTalliedOnce(),
              "kMigrationStatFields must tally each MigrateResult once");

} // namespace

void
MigrationEngine::tally(MigrateResult result)
{
    for (const MigrationStatField &field : kMigrationStatFields) {
        if (field.tallies == result) {
            ++(_stats.*field.member);
            return;
        }
    }
}

void
MigrationEngine::charge(const MoveCost &cost)
{
    _machine.backgroundTraffic((cost.copy + cost.fixed) /
                               static_cast<int64_t>(_parallelism));
}

void
MigrationEngine::commitMove(Frame *frame, TierId src, Pfn src_pfn,
                            Landing landing, SourceFate source,
                            MoveCost &cost)
{
    const TierId dst = frame->tier;
    const Pfn dst_pfn = frame->pfn;
    if (_frameOwner != nullptr && frame->owner != nullptr)
        _frameOwner->frameMoved(frame, src);
    if (landing == Landing::Shadow) {
        _machine.tracer().emit(TraceEventType::ShadowReuse, dst, dst_pfn,
                               src, src_pfn);
    }
    _machine.tracer().emit(TraceEventType::MigStart, src, src_pfn, dst,
                           dst_pfn);
    frame->scanMarks = 0;
    if (dst > src) {
        // Demotion resets LRU standing: the page must prove reuse
        // before any policy promotes it again.
        _lru.deactivate(frame);
    }
    _machine.tracer().emit(TraceEventType::MigComplete, dst, dst_pfn,
                           frame->pages(), dst > src ? 1 : 0);
    if (source == SourceFate::KeepShadow) {
        const ShadowRecord *shadow = _tiers.shadowOf(frame);
        _machine.tracer().emit(TraceEventType::ShadowMake, shadow->tier,
                               shadow->pfn, static_cast<uint64_t>(dst),
                               dst_pfn);
        ++_stats.shadowMakes;
    } else if (source == SourceFate::Quarantine) {
        _tiers.noteQuarantined(src, src_pfn, frame->order);
    }

    // A shadow landing is a remap: no copy traffic. A fresh one writes
    // the destination, reading the source unless it is poisoned (the
    // recovery path re-reads the bytes from the device instead).
    if (landing == Landing::Fresh) {
        const Bytes bytes = frame->bytes();
        if (source != SourceFate::Quarantine) {
            cost.copy += _machine.memModel().rawCost(
                src, bytes, AccessType::Read, _machine.currentSocket());
        }
        cost.copy += _machine.memModel().rawCost(
            dst, bytes, AccessType::Write, _machine.currentSocket());
    }
    cost.fixed += kPerPageOverhead * frame->pages().value();

    // Containment is not a migration: it never enters the stats.
    if (source == SourceFate::Quarantine)
        return;
    _stats.migratedPages += frame->pages();
    _stats.migratedPagesByClass[static_cast<unsigned>(frame->objClass)] +=
        frame->pages();
    if (dst > src)
        _stats.demotedPages += frame->pages();
    else
        _stats.promotedPages += frame->pages();
}

MigrateResult
MigrationEngine::moveFrame(Frame *frame, TierId dst, SourceFate source,
                           MoveCost &cost)
{
    const TierId src = frame->tier;
    const Pfn src_pfn = frame->pfn;

    // A shadow only helps when it sits on the destination, its tier
    // is online, and no write dirtied the fast copy since the
    // promotion. Anything else is released up front so the frame
    // takes the copy path below.
    if (frame->hasShadow()) {
        const TierId shadow_tier = _tiers.shadowOf(frame)->tier;
        if (!_tiers.tier(shadow_tier).online())
            _tiers.dropShadow(frame, ShadowDropReason::Offline);
        else if (shadow_tier != dst)
            _tiers.dropShadow(frame, ShadowDropReason::FrameMoved);
        else if (!_tiers.shadowClean(frame))
            _tiers.dropShadow(frame, ShadowDropReason::Stale);
    }
    if (frame->hasShadow()) {
        // Clean shadow: the move is a remap, no copy — so no copy
        // fault can fire either.
        const MigrateResult result =
            _tiers.rehome(frame, dst, Landing::Shadow, SourceFate::Free);
        if (result == MigrateResult::Ok) {
            commitMove(frame, src, src_pfn, Landing::Shadow,
                       SourceFate::Free, cost);
            ++_stats.shadowFreeDemotions;
        }
        return result;
    }

    if (_machine.faults().shouldFire(FaultSite::FramePoisonCopy)) {
        // The copy's source read hit bad cells: the move fails and
        // the caller hands the frame to containment instead.
        return MigrateResult::Poisoned;
    }
    // Injected transient exhaustion: the destination allocator
    // reports no frames even though space may exist.
    const MigrateResult result =
        _machine.faults().shouldFire(FaultSite::MigrationNoSpace)
            ? MigrateResult::NoSpace
            : _tiers.rehome(frame, dst, Landing::Fresh, source);
    if (result == MigrateResult::Ok)
        commitMove(frame, src, src_pfn, Landing::Fresh, source, cost);
    return result;
}

bool
MigrationEngine::moveWithRetry(const FrameRef &ref, TierId dst,
                               MoveCost &cost, bool &fail_fast)
{
    for (unsigned attempt = 0; ; ++attempt) {
        // Backoff charges time, and charged time can run async work
        // that frees the frame — re-validate every iteration.
        if (!ref.valid()) {
            ++_stats.failedStale;
            return false;
        }
        Frame *frame = ref.get();
        const TierId src = frame->tier;
        const Pfn src_pfn = frame->pfn;
        ++_stats.attempts;
        const MigrateResult result =
            moveFrame(frame, dst, SourceFate::Free, cost);
        if (result == MigrateResult::NoSpace && !fail_fast &&
            attempt < kMaxNoSpaceRetries) {
            ++_stats.noSpaceRetries;
            _machine.tracer().emit(TraceEventType::MigRetry, src, src_pfn,
                                   static_cast<uint64_t>(dst),
                                   attempt + 1);
            _machine.backgroundTraffic(kRetryBackoffBase *
                                       (int64_t{1} << attempt));
            continue;
        }
        tally(result);
        if (result == MigrateResult::Poisoned) {
            // Containment for a copy poisoning; a frame already
            // poisoned in place is left alone.
            poisonFrame(frame, PoisonOrigin::Copy);
        } else if (result == MigrateResult::NoSpace) {
            // Abandon: the frame stays where it is, degraded but
            // consistent. Rotate it hot so the next scan picks
            // different candidates instead of respinning on it, and
            // fail the rest of the batch fast — the destination has
            // proven itself exhausted.
            fail_fast = true;
            _machine.tracer().emit(
                TraceEventType::MigAbandon, src, src_pfn,
                static_cast<uint64_t>(dst),
                static_cast<uint64_t>(result));
            _lru.requeue(frame);
        }
        return result == MigrateResult::Ok;
    }
}

uint64_t
MigrationEngine::migrate(const std::vector<FrameRef> &batch, TierId dst)
{
    MoveCost cost;
    uint64_t moved_pages = 0;
    bool fail_fast = false;
    // Each successful move emits a MigStart/MigComplete bracket plus
    // the LRU transitions in between; deliver the whole batch's run
    // in bulk instead of paying listener fan-out per event.
    TraceBatch trace_batch(_machine.tracer());
    for (const FrameRef &ref : batch) {
        if (!ref.valid()) {
            ++_stats.failedStale;
            continue;
        }
        if (ref.get()->tier == dst)
            continue;
        const uint64_t before = _stats.migratedPages;
        if (moveWithRetry(ref, dst, cost, fail_fast))
            moved_pages += _stats.migratedPages - before;
    }
    charge(cost);
    return moved_pages;
}

bool
MigrationEngine::promoteOneTransactional(Frame *frame, TierId dst,
                                         Tick write_recency_window,
                                         MoveCost &cost, bool &fail_fast)
{
    ++_stats.attempts;
    const TierId src = frame->tier;
    const Pfn src_pfn = frame->pfn;
    _machine.tracer().emit(TraceEventType::MigTxnBegin, src, src_pfn,
                           static_cast<uint64_t>(dst));
    ++_stats.txnBegins;

    // Write-recency abort: the page would be dirtied mid-copy, so
    // the transaction throws its partial work away. Only half the
    // source read is charged — never the destination write.
    const Tick now = _machine.now();
    if (frame->lastWriteTick > Tick{} &&
        now - frame->lastWriteTick < write_recency_window) {
        cost.copy += _machine.memModel().rawCost(
                         src, frame->bytes(), AccessType::Read,
                         _machine.currentSocket()) / 2;
        _machine.tracer().emit(
            TraceEventType::MigTxnAbort, src, src_pfn,
            static_cast<uint64_t>(dst),
            static_cast<uint64_t>(TxnAbortReason::WriteRecent));
        ++_stats.txnAbortedWrite;
        _lru.requeue(frame);
        return false;
    }

    // A committed copy keeps the source as a shadow while the budget
    // allows; past it, the promotion is a plain exclusive move.
    const bool over_budget =
        _tiers.shadowPages() + frame->pages().value() > _shadowBudget;
    const MigrateResult result = moveFrame(
        frame, dst, over_budget ? SourceFate::Free : SourceFate::KeepShadow,
        cost);
    tally(result);
    if (result == MigrateResult::Ok) {
        ++_stats.txnCommits;
        return true;
    }

    // NoSpace is a cheap abort with no retry/backoff: the whole point
    // of the transactional copy is that pressure aborts cost nothing.
    // Every other outcome — a poisoned copy included — is a blocked
    // abort.
    const bool no_space = result == MigrateResult::NoSpace;
    _machine.tracer().emit(
        TraceEventType::MigTxnAbort, src, src_pfn,
        static_cast<uint64_t>(dst),
        static_cast<uint64_t>(no_space ? TxnAbortReason::NoSpace
                                       : TxnAbortReason::Blocked));
    if (no_space) {
        ++_stats.txnAbortedNoSpace;
        _lru.requeue(frame);
        fail_fast = true;
    } else {
        ++_stats.txnAbortedBlocked;
        if (result == MigrateResult::Poisoned)
            poisonFrame(frame, PoisonOrigin::Copy);
    }
    return false;
}

uint64_t
MigrationEngine::promoteTransactional(const std::vector<FrameRef> &batch,
                                      TierId dst,
                                      Tick write_recency_window)
{
    MoveCost cost;
    uint64_t moved_pages = 0;
    bool fail_fast = false;
    TraceBatch trace_batch(_machine.tracer());
    for (const FrameRef &ref : batch) {
        if (fail_fast)
            break;  // destination proven exhausted; no txn events
        if (!ref.valid()) {
            ++_stats.failedStale;
            continue;
        }
        Frame *frame = ref.get();
        if (frame->tier == dst)
            continue;
        if (promoteOneTransactional(frame, dst, write_recency_window,
                                    cost, fail_fast)) {
            moved_pages += frame->pages();
        }
    }
    charge(cost);
    return moved_pages;
}

bool
MigrationEngine::migrateOne(Frame *frame, TierId dst)
{
    MoveCost cost;
    bool fail_fast = false;
    const bool ok = moveWithRetry(FrameRef(frame), dst, cost, fail_fast);
    charge(cost);
    return ok;
}

uint64_t
MigrationEngine::offlineTier(TierId id)
{
    _tiers.setTierOnline(id, false);

    // Shadow copies parked on the tier would pin its buddy pages
    // forever; they are only an optimisation, so release them.
    _tiers.dropShadowsOn(id, ShadowDropReason::Offline);

    // Drain: every live frame resident on the tier is offered to the
    // remaining online tiers, fastest first. Destinations that prove
    // exhausted are skipped for the rest of the drain.
    std::vector<FrameRef> frames = _tiers.collectFramesOn(id);
    std::vector<bool> exhausted(_tiers.tierCount(), false);
    uint64_t moved_pages = 0;
    uint64_t stranded = 0;
    TraceBatch trace_batch(_machine.tracer());
    for (const FrameRef &ref : frames) {
        if (!ref.valid() || ref.get()->tier != id)
            continue;  // freed or relocated by async work meanwhile
        bool ok = false;
        for (size_t t = 0; t < _tiers.tierCount() && !ok; ++t) {
            const TierId dst = static_cast<TierId>(t);
            if (dst == id || exhausted[t] || !_tiers.tier(dst).online())
                continue;
            MoveCost cost;
            bool fail_fast = false;
            const uint64_t before = _stats.migratedPages;
            ok = moveWithRetry(ref, dst, cost, fail_fast);
            charge(cost);
            if (ok) {
                moved_pages += _stats.migratedPages - before;
                break;
            }
            if (fail_fast)
                exhausted[t] = true;
            // A frame-local obstacle (freed, pinned, non-relocatable,
            // poisoned in place) blocks every destination equally;
            // stop offering it.
            if (!ref.valid() || !ref.get()->relocatable ||
                ref.get()->pinned() || ref.get()->poisoned) {
                break;
            }
        }
        if (!ok && ref.valid() && ref.get()->tier == id)
            ++stranded;
    }
    _machine.tracer().emit(TraceEventType::TierDrain,
                           static_cast<uint64_t>(id), moved_pages,
                           stranded);
    return stranded;
}

void
MigrationEngine::onlineTier(TierId id)
{
    _tiers.setTierOnline(id, true);
}

void
MigrationEngine::scheduleTierEvents()
{
    for (const TierFaultEvent &event : _machine.faults().spec().tierEvents) {
        post(event.at,
             event.offline ? TierAction::Offline : TierAction::Online,
             event.tier);
    }
    for (const PoisonStormEvent &storm :
         _machine.faults().spec().poisonStorms) {
        for (uint64_t burst = 0; burst < storm.repeat; ++burst) {
            const Tick at =
                storm.at + storm.every * static_cast<int64_t>(burst);
            post(at, TierAction::Storm, storm.tier, storm.frames);
        }
    }
}

MigrationEngine::TierEvent::TierEvent(MigrationEngine &engine)
    : Event(&TierEvent::fire), engine(engine)
{}

void
MigrationEngine::TierEvent::fire(Event &event)
{
    // Each action takes the node's fields by value: it may post to
    // this node, idle again, before it returns.
    const auto &self = static_cast<TierEvent &>(event);
    switch (self.action) {
      case TierAction::Offline:
        self.engine.offlineTier(self.tier);
        break;
      case TierAction::Online:
        self.engine.onlineTier(self.tier);
        break;
      case TierAction::Storm:
        self.engine.firePoisonStorm(self.tier, self.frames);
        break;
      case TierAction::HealthDrain:
        self.engine.drainFailedTier(self.tier);
        break;
      case TierAction::HealthReadmit:
        self.engine.readmitTier(self.tier);
        break;
    }
}

void
MigrationEngine::post(Tick when, TierAction action, TierId tier,
                      uint64_t frames)
{
    auto idle = std::find_if(_tierEvents.begin(), _tierEvents.end(),
                             [](const TierEvent &e) { return !e.pending(); });
    TierEvent &event =
        idle != _tierEvents.end() ? *idle : _tierEvents.emplace_back(*this);
    event.action = action;
    event.tier = tier;
    event.frames = frames;
    _machine.events().schedule(event, when);
}

void
MigrationEngine::emitDataLoss(Frame *frame, DataLossReason reason)
{
    ++_poisonStats.dataLoss;
    _machine.tracer().emit(TraceEventType::DataLoss, frame->tier,
                           frame->pfn, static_cast<uint64_t>(reason),
                           static_cast<uint64_t>(frame->objClass));
}

bool
MigrationEngine::poisonFrame(Frame *frame, PoisonOrigin origin)
{
    if (frame == nullptr || frame->tier == kInvalidTier || frame->poisoned)
        return false;

    frame->poisoned = true;
    const TierId src = frame->tier;
    ++_poisonStats.poisonedFrames;
    if (origin == PoisonOrigin::Storm)
        ++_poisonStats.stormFrames;
    _machine.tracer().emit(TraceEventType::FramePoison, src, frame->pfn,
                           static_cast<uint64_t>(origin),
                           static_cast<uint64_t>(frame->objClass));
    _tiers.recordTierError(src);

    // Recovery ladder, cheapest source first. Each leg fully resolves
    // the frame: either its bytes land on a healthy tier or a
    // DataLoss records the SIGBUS. The poisoned block quarantines
    // immediately on evacuation, or at free time when stuck in place.
    MoveCost cost;
    bool recovered = false;
    const ShadowRecord *shadow = _tiers.shadowOf(frame);
    if (!frame->relocatable || frame->pinned()) {
        // Unmovable: the error stays resident until the frame is
        // released; its block quarantines on free.
        emitDataLoss(frame, DataLossReason::Unmovable);
    } else if (_tiers.shadowClean(frame) && shadow->tier != src &&
               _tiers.tier(shadow->tier).online()) {
        recovered = recoverViaShadow(frame, cost);
    } else if (_rereadProbe != nullptr && _rereadProbe(_rereadCtx, frame)) {
        recovered = recoverViaReread(frame, cost);
    } else {
        // No clean shadow and no backing copy: the bytes are gone.
        emitDataLoss(frame, DataLossReason::NoSource);
    }

    // Charged only when a leg moved the frame: containment runs from
    // inside access/scan hooks, where a zero charge would still run
    // due events.
    if (cost.copy + cost.fixed > Tick{})
        charge(cost);
    if (_frameOwner != nullptr)
        _frameOwner->framePoisoned(frame, src, !recovered);
    return recovered;
}

bool
MigrationEngine::recoverViaShadow(Frame *frame, MoveCost &cost)
{
    const TierId src = frame->tier;
    const Pfn src_pfn = frame->pfn;
    const MigrateResult result =
        _tiers.rehome(frame, _tiers.shadowOf(frame)->tier, Landing::Shadow,
                      SourceFate::Quarantine);
    // The caller pre-checked every failure leg (relocatable, unpinned,
    // distinct online shadow tier), so adoption cannot fail.
    KLOC_ASSERT(result == MigrateResult::Ok, "shadow recovery failed: %s",
                migrateResultName(result));
    commitMove(frame, src, src_pfn, Landing::Shadow, SourceFate::Quarantine,
               cost);
    _machine.tracer().emit(TraceEventType::MemRecover,
                           traceFrameKey(frame->tier, frame->pfn),
                           traceFrameKey(src, src_pfn),
                           static_cast<uint64_t>(RecoverySource::Shadow));
    ++_poisonStats.recoveredShadow;
    return true;
}

bool
MigrationEngine::recoverViaReread(Frame *frame, MoveCost &cost)
{
    const TierId src = frame->tier;
    const Pfn src_pfn = frame->pfn;

    // Land the replacement frame on the fastest online tier with
    // room; recovery placement is not a policy decision.
    MigrateResult result = MigrateResult::NoSpace;
    for (size_t t = 0; t < _tiers.tierCount(); ++t) {
        const TierId dst_id = static_cast<TierId>(t);
        if (dst_id == src || !_tiers.tier(dst_id).online())
            continue;
        result = _tiers.rehome(frame, dst_id, Landing::Fresh,
                               SourceFate::Quarantine);
        if (result == MigrateResult::Ok)
            break;
    }
    if (result != MigrateResult::Ok) {
        // Nowhere to rebuild the page: poisoned in place, block
        // quarantines on free.
        emitDataLoss(frame, DataLossReason::NoSpace);
        return false;
    }
    commitMove(frame, src, src_pfn, Landing::Fresh, SourceFate::Quarantine,
               cost);

    // The device read inside the hook charges itself through the
    // block layer. Pin the frame across the read — the I/O charge can
    // dispatch daemon work that would otherwise migrate or free it
    // mid-recovery.
    const TierId dst = frame->tier;
    const Pfn dst_pfn = frame->pfn;
    frame->pin();
    _machine.tracer().emit(TraceEventType::FramePin, dst, dst_pfn);
    const bool read_ok = _rereadFn != nullptr && _rereadFn(_rereadCtx, frame);
    _machine.tracer().emit(TraceEventType::FrameUnpin, dst, dst_pfn);
    frame->unpin();

    if (!read_ok) {
        // The frame moved but its bytes did not: the device gave up.
        emitDataLoss(frame, DataLossReason::RereadFailed);
        return false;
    }
    _machine.tracer().emit(TraceEventType::MemRecover,
                           traceFrameKey(dst, dst_pfn),
                           traceFrameKey(src, src_pfn),
                           static_cast<uint64_t>(RecoverySource::Reread));
    ++_poisonStats.recoveredReread;
    return true;
}

void
MigrationEngine::firePoisonStorm(TierId tier, uint64_t frames)
{
    if (tier < 0 || static_cast<size_t>(tier) >= _tiers.tierCount()) {
        // Specs are written against arbitrary topologies; a storm
        // aimed at a tier this machine lacks is a no-op, recorded.
        _machine.tracer().emit(TraceEventType::PoisonStorm,
                               static_cast<uint64_t>(tier), frames, 0);
        return;
    }
    const std::vector<FrameRef> victims = _tiers.collectFramesOn(tier);
    uint64_t fired = 0;
    for (const FrameRef &ref : victims) {
        if (fired >= frames)
            break;
        // Containment charges time, and charged time can run async
        // work that frees or moves later victims — re-validate.
        if (!ref.valid() || ref.get()->tier != tier ||
            ref.get()->poisoned) {
            continue;
        }
        poisonFrame(ref.get(), PoisonOrigin::Storm);
        ++fired;
    }
    _machine.tracer().emit(TraceEventType::PoisonStorm,
                           static_cast<uint64_t>(tier), frames, fired);
}

void
MigrationEngine::onTierHealth(TierId tier, TierHealth from, TierHealth to)
{
    const size_t idx = static_cast<size_t>(tier);
    if (_healthOfflined.size() <= idx)
        _healthOfflined.resize(idx + 1, 0);
    // Transitions arrive synchronously from recordTierError() or the
    // health tick — possibly mid-scan or mid-batch — so the heavy
    // drain/readmission runs from the event queue, re-checking health
    // at fire time.
    if (to == TierHealth::Failed)
        post(_machine.now(), TierAction::HealthDrain, tier);
    else if (from == TierHealth::Failed)
        post(_machine.now(), TierAction::HealthReadmit, tier);
}

void
MigrationEngine::drainFailedTier(TierId tier)
{
    const size_t idx = static_cast<size_t>(tier);
    if (_tiers.health(tier) != TierHealth::Failed ||
        !_tiers.tier(tier).online()) {
        return;
    }
    // Never drain the last online tier: a failed-but-present tier
    // still serves; an empty machine panics on the next kernel
    // allocation. The tier is readmitted (or drained) once another
    // tier comes back.
    bool other_online = false;
    for (size_t t = 0; t < _tiers.tierCount(); ++t) {
        if (t != idx && _tiers.tier(static_cast<TierId>(t)).online()) {
            other_online = true;
            break;
        }
    }
    if (!other_online)
        return;
    _healthOfflined[idx] = 1;
    offlineTier(tier);
}

void
MigrationEngine::readmitTier(TierId tier)
{
    // Readmit only tiers this engine drained for health; operator-
    // offlined tiers stay down until their own online event.
    const size_t idx = static_cast<size_t>(tier);
    if (_tiers.health(tier) != TierHealth::Failed &&
        _healthOfflined[idx] != 0 && !_tiers.tier(tier).online()) {
        _healthOfflined[idx] = 0;
        onlineTier(tier);
    }
}

} // namespace kloc
