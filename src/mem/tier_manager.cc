#include "mem/tier_manager.hh"

#include "base/logging.hh"
#include "mem/migration.hh"

namespace kloc {

const char *
migrateResultName(MigrateResult result)
{
    switch (result) {
      case MigrateResult::Ok:             return "ok";
      case MigrateResult::NotRelocatable: return "not_relocatable";
      case MigrateResult::Pinned:         return "pinned";
      case MigrateResult::Damped:         return "damped";
      case MigrateResult::SameTier:       return "same_tier";
      case MigrateResult::Offline:        return "offline";
      case MigrateResult::NoSpace:        return "no_space";
      case MigrateResult::Poisoned:       return "poisoned";
    }
    return "unknown";
}

const char *
poisonOriginName(PoisonOrigin origin)
{
    switch (origin) {
      case PoisonOrigin::Access: return "access";
      case PoisonOrigin::Scan:   return "scan";
      case PoisonOrigin::Copy:   return "copy";
      case PoisonOrigin::Storm:  return "storm";
    }
    return "unknown";
}

const char *
recoverySourceName(RecoverySource source)
{
    switch (source) {
      case RecoverySource::Shadow: return "shadow";
      case RecoverySource::Reread: return "reread";
    }
    return "unknown";
}

const char *
dataLossReasonName(DataLossReason reason)
{
    switch (reason) {
      case DataLossReason::Unmovable:    return "unmovable";
      case DataLossReason::NoSource:     return "no_source";
      case DataLossReason::RereadFailed: return "reread_failed";
      case DataLossReason::NoSpace:      return "no_space";
    }
    return "unknown";
}

const char *
tierHealthName(TierHealth health)
{
    switch (health) {
      case TierHealth::Healthy:  return "healthy";
      case TierHealth::Degraded: return "degraded";
      case TierHealth::Failed:   return "failed";
    }
    return "unknown";
}

const char *
shadowDropReasonName(ShadowDropReason reason)
{
    switch (reason) {
      case ShadowDropReason::Stale:      return "stale";
      case ShadowDropReason::FrameFreed: return "frame_freed";
      case ShadowDropReason::FrameMoved: return "frame_moved";
      case ShadowDropReason::Pressure:   return "pressure";
      case ShadowDropReason::Offline:    return "offline";
      case ShadowDropReason::PolicyStop: return "policy_stop";
    }
    return "unknown";
}

TierId
TierManager::addTier(const TierSpec &spec)
{
    const TierId id = _machine.memModel().addTier(spec);
    KLOC_ASSERT(static_cast<size_t>(id) == _tiers.size(),
                "tier id out of sync with memory model");
    _tiers.push_back(std::make_unique<Tier>(id, spec));
    _tiers.back()->buddy().setTrace(&_machine.tracer(), id);
    _tiers.back()->configurePcp(_machine.cpuCount(), _usePcpLists);
    _health.push_back(HealthState{});
    return id;
}

void
TierManager::setUsePerCpuFrameLists(bool enabled)
{
    if (_usePcpLists == enabled)
        return;
    _usePcpLists = enabled;
    for (auto &t : _tiers)
        t->configurePcp(_machine.cpuCount(), enabled);
}

Pfn
TierManager::allocBlock(Tier &t, unsigned order)
{
    if (order == 0)
        return t.pcpAlloc(_machine.currentCpu());
    return t.buddy().alloc(order);
}

void
TierManager::freeBlock(Tier &t, Pfn pfn, unsigned order)
{
    if (order == 0)
        t.pcpFree(_machine.currentCpu(), pfn);
    else
        t.buddy().free(pfn, order);
}

Tier &
TierManager::tier(TierId id)
{
    KLOC_ASSERT(id >= 0 && static_cast<size_t>(id) < _tiers.size(),
                "bad tier id %d", id.value());
    return *_tiers[static_cast<size_t>(id)];
}

const Tier &
TierManager::tier(TierId id) const
{
    KLOC_ASSERT(id >= 0 && static_cast<size_t>(id) < _tiers.size(),
                "bad tier id %d", id.value());
    return *_tiers[static_cast<size_t>(id)];
}

Frame *
TierManager::alloc(unsigned order, ObjClass cls, bool relocatable,
                   const TierPreference &preference)
{
    for (const TierId tid : preference) {
        Tier &t = tier(tid);
        if (!t.online())
            continue;
        const Pfn pfn = allocBlock(t, order);
        if (pfn == kInvalidPfn)
            continue;

        Frame *frame;
        if (!_freeFrameObjs.empty()) {
            frame = _freeFrameObjs.back();
            _freeFrameObjs.pop_back();
            const uint64_t gen = frame->generation;
            *frame = Frame{};
            frame->generation = gen;
        } else {
            frame = _frameArena.create();
        }
        frame->tier = tid;
        frame->pfn = pfn;
        frame->order = static_cast<uint8_t>(order);
        frame->objClass = cls;
        frame->relocatable = relocatable;
        frame->allocTick = _machine.now();
        frame->lastAccessTick = _machine.now();

        t.noteAlloc(cls, frame->pages());
        ++_liveFrames;

        // Like Linux, fresh pages start on the inactive list and must
        // prove themselves via references.
        t.inactiveList().pushFront(frame);
        _machine.tracer().emit(TraceEventType::FrameAlloc, tid, pfn, order,
                               static_cast<uint64_t>(cls));
        return frame;
    }
    return nullptr;
}

void
TierManager::free(Frame *frame)
{
    KLOC_ASSERT(frame != nullptr, "free of null frame");
    KLOC_ASSERT(frame->tier != kInvalidTier, "double free of frame");

    if (frame->hasShadow())
        dropShadow(frame, ShadowDropReason::FrameFreed);
    Tier &t = tier(frame->tier);
    if (frame->lruHook.linked())
        t.lruList(*frame).remove(frame);
    _machine.tracer().emit(TraceEventType::FrameFree, frame->tier,
                           frame->pfn, frame->order,
                           static_cast<uint64_t>(frame->objClass));

    const Tick lifetime = _machine.now() - frame->allocTick;
    _lifetimes[static_cast<unsigned>(frame->objClass)]
        .sample(static_cast<uint64_t>(lifetime));

    t.noteFree(frame->objClass, frame->pages());
    if (frame->poisoned) {
        // A poisoned block never returns to the allocator: it is
        // retired into quarantine the moment its frame dies.
        quarantineBlock(t, frame->pfn, frame->order);
    } else {
        freeBlock(t, frame->pfn, frame->order);
    }

    frame->tier = kInvalidTier;
    frame->pfn = kInvalidPfn;
    frame->owner = nullptr;
    ++frame->generation;
    --_liveFrames;
    _freeFrameObjs.push_back(frame);
}

MigrateResult
TierManager::rehome(Frame *frame, TierId dst, Landing landing,
                    SourceFate source)
{
    KLOC_ASSERT(frame->tier != kInvalidTier, "re-homing freed frame");
    KLOC_ASSERT(landing == Landing::Fresh ||
                    (frame->hasShadow() && shadowOf(frame)->tier == dst),
                "no shadow on the destination to land in");
    KLOC_ASSERT(source != SourceFate::KeepShadow ||
                    (landing == Landing::Fresh && !frame->hasShadow()),
                "keeping a shadow over an existing one");
    const bool containment = source == SourceFate::Quarantine;
    KLOC_ASSERT(!containment || frame->poisoned,
                "quarantining a healthy frame's block");
    if (!frame->relocatable)
        return MigrateResult::NotRelocatable;
    if (frame->pinned())
        return MigrateResult::Pinned;
    if (frame->tier == dst)
        return MigrateResult::SameTier;
    // Ping-pong damping (§4.5): a page migrated many times is
    // retained where it is rather than demoted again. Promotions
    // (toward lower tier ids) stay allowed so the page can settle
    // in fast memory, which is where the paper retains such pages.
    // The counter also has an absolute cap. Containment is not a
    // policy decision and is never damped.
    if (!containment &&
        ((frame->migrateCount >= kRetainThreshold && dst > frame->tier) ||
         frame->migrateCount == 0xFF)) {
        return MigrateResult::Damped;
    }
    Tier &to = tier(dst);
    if (!to.online())
        return MigrateResult::Offline;
    // A frame poisoned in place may only leave its bad block through
    // containment; any other move would free that block.
    if (frame->poisoned && !containment)
        return MigrateResult::Poisoned;

    Pfn new_pfn;
    if (landing == Landing::Shadow) {
        // The shadow's buddy pages are already ours; adopt them.
        new_pfn = shadowOf(frame)->pfn;
        _shadows.erase(frame);
        _shadowPages -= frame->pages();
        frame->shadowed = false;
    } else {
        new_pfn = allocBlock(to, frame->order);
        if (new_pfn == kInvalidPfn)
            return MigrateResult::NoSpace;
        // Past the commit point: a fresh landing strands any shadow.
        if (frame->hasShadow())
            dropShadow(frame, ShadowDropReason::FrameMoved);
    }

    // Only the class residency moves with the frame; the vacated
    // block's buddy pages follow @p source.
    Tier &from = tier(frame->tier);
    from.noteFree(frame->objClass, frame->pages());
    switch (source) {
      case SourceFate::Free:
        freeBlock(from, frame->pfn, frame->order);
        break;
      case SourceFate::KeepShadow:
        _shadows.emplace(frame,
                         ShadowRecord{frame->tier, frame->pfn, _machine.now()});
        frame->shadowed = true;
        _shadowPages += frame->pages();
        break;
      case SourceFate::Quarantine:
        from.buddy().quarantine(frame->pfn, frame->order);
        frame->poisoned = false;
        break;
    }
    if (frame->lruHook.linked()) {
        from.lruList(*frame).remove(frame);
        to.lruList(*frame).pushFront(frame);
    }

    frame->tier = dst;
    frame->pfn = new_pfn;
    ++frame->migrateCount;
    to.noteArrive(frame->objClass, frame->pages());
    return MigrateResult::Ok;
}

void
TierManager::dropShadow(Frame *frame, ShadowDropReason reason)
{
    if (!frame->hasShadow())
        return;
    const ShadowRecord shadow = *shadowOf(frame);
    _shadows.erase(frame);
    frame->shadowed = false;
    _machine.tracer().emit(TraceEventType::ShadowDrop, shadow.tier,
                           shadow.pfn, static_cast<uint64_t>(reason));
    freeBlock(tier(shadow.tier), shadow.pfn, frame->order);
    _shadowPages -= frame->pages();
    ++_shadowDrops;
}

void
TierManager::dropAllShadows(ShadowDropReason reason)
{
    _frameArena.forEach([&](Frame &frame) {
        if (frame.tier != kInvalidTier && frame.hasShadow())
            dropShadow(&frame, reason);
    });
}

void
TierManager::dropShadowsOn(TierId id, ShadowDropReason reason)
{
    _frameArena.forEach([&](Frame &frame) {
        if (frame.tier != kInvalidTier && frame.hasShadow() &&
            shadowOf(&frame)->tier == id)
            dropShadow(&frame, reason);
    });
}

void
TierManager::setTierOnline(TierId id, bool online)
{
    Tier &t = tier(id);
    if (t.online() == online)
        return;
    t.setOnline(online);
    // An offline tier's cached blocks go back to the buddy so the
    // drain below sees the tier's true free space.
    if (!online)
        t.drainPcp();
    _machine.tracer().emit(online ? TraceEventType::TierOnline
                                  : TraceEventType::TierOffline,
                           static_cast<uint64_t>(id));
}

std::vector<FrameRef>
TierManager::collectFramesOn(TierId id)
{
    std::vector<FrameRef> frames;
    // Arena order is creation order and deterministic; freed slots
    // are recognised by their invalid tier.
    _frameArena.forEach([&](Frame &frame) {
        if (frame.tier == id)
            frames.emplace_back(&frame);
    });
    return frames;
}

void
TierManager::quarantineBlock(Tier &t, Pfn pfn, unsigned order)
{
    t.buddy().quarantine(pfn, order);
    _machine.tracer().emit(TraceEventType::FrameQuarantine, t.id(), pfn,
                           order);
}

void
TierManager::noteQuarantined(TierId tier, Pfn pfn, unsigned order)
{
    _machine.tracer().emit(TraceEventType::FrameQuarantine,
                           static_cast<uint64_t>(tier), pfn, order);
}

TierHealth
TierManager::health(TierId id) const
{
    KLOC_ASSERT(id >= 0 && static_cast<size_t>(id) < _health.size(),
                "bad tier id %d", id.value());
    return _health[static_cast<size_t>(id)].health;
}

uint64_t
TierManager::healthScore(TierId id) const
{
    KLOC_ASSERT(id >= 0 && static_cast<size_t>(id) < _health.size(),
                "bad tier id %d", id.value());
    return _health[static_cast<size_t>(id)].score;
}

void
TierManager::transitionHealth(TierId id, TierHealth to)
{
    HealthState &state = _health[static_cast<size_t>(id)];
    const TierHealth from = state.health;
    if (from == to)
        return;
    state.health = to;
    _machine.tracer().emit(TraceEventType::TierHealth,
                           static_cast<uint64_t>(id),
                           static_cast<uint64_t>(from),
                           static_cast<uint64_t>(to), state.score);
    if (_migrator != nullptr)
        _migrator->onTierHealth(id, from, to);
}

void
TierManager::applyUpwardTransitions(TierId id)
{
    HealthState &state = _health[static_cast<size_t>(id)];
    if (state.health == TierHealth::Healthy &&
        state.score >= kDegradeScore) {
        transitionHealth(id, TierHealth::Degraded);
    }
    if (state.health == TierHealth::Degraded &&
        state.score >= kFailScore) {
        transitionHealth(id, TierHealth::Failed);
    }
}

void
TierManager::recordTierError(TierId id)
{
    KLOC_ASSERT(id >= 0 && static_cast<size_t>(id) < _health.size(),
                "bad tier id %d", id.value());
    HealthState &state = _health[static_cast<size_t>(id)];
    state.score += kErrorScore;
    applyUpwardTransitions(id);
    // Armed lazily on the first error ever recorded, so an error-free
    // run schedules nothing and its trace is byte-identical to a
    // build without the health machinery.
    _healthDaemon.start(kHealthTickPeriod);
}

void
TierManager::healthTick()
{
    bool busy = false;
    for (size_t i = 0; i < _health.size(); ++i) {
        HealthState &state = _health[i];
        // 25% multiplicative decay per tick; small residues snap to
        // zero so scores actually reach rest.
        state.score -= state.score / 4;
        if (state.score < kErrorScore / 16)
            state.score = 0;
        const TierId id = static_cast<TierId>(i);
        if (state.health == TierHealth::Failed &&
            state.score <= kReadmitScore) {
            transitionHealth(id, TierHealth::Degraded);
        }
        if (state.health == TierHealth::Degraded &&
            state.score <= kRecoverScore) {
            transitionHealth(id, TierHealth::Healthy);
        }
        if (state.score > 0 || state.health != TierHealth::Healthy)
            busy = true;
    }
    if (!busy)
        _healthDaemon.stop();
}

TierPreference
TierManager::preferHealthy(const TierPreference &preference) const
{
    // Stable three-way partition by health band. Most calls see all
    // tiers healthy; return the input untouched then.
    bool all_healthy = true;
    for (const TierId id : preference) {
        if (health(id) != TierHealth::Healthy) {
            all_healthy = false;
            break;
        }
    }
    if (all_healthy)
        return preference;

    TierPreference out;
    for (const TierId id : preference) {
        if (health(id) == TierHealth::Healthy)
            out.push_back(id);
    }
    for (const TierId id : preference) {
        if (health(id) == TierHealth::Degraded)
            out.push_back(id);
    }
    for (const TierId id : preference) {
        if (health(id) == TierHealth::Failed)
            out.push_back(id);
    }
    return out;
}

uint64_t
TierManager::quarantinedPages() const
{
    uint64_t pages = 0;
    for (const auto &t : _tiers)
        pages += static_cast<uint64_t>(t->buddy().quarantinedFrames());
    return pages;
}

} // namespace kloc
