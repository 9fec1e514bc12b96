#include "alloc/slab.hh"

#include "base/logging.hh"
#include "base/ordered.hh"

namespace kloc {

KmemCache::KmemCache(MemAccessor &mem, TierManager &tiers, std::string name,
                     Bytes obj_size, ObjClass cls, unsigned order)
    : _mem(mem),
      _tiers(tiers),
      _name(std::move(name)),
      _objSize(obj_size),
      _cls(cls),
      _order(order),
      _magazine(mem.machine().cpuCount(), 0)
{
    KLOC_ASSERT(obj_size > 0, "zero-size cache '%s'", _name.c_str());
    const Bytes slab_bytes = (1ULL << order) * kPageSize;
    KLOC_ASSERT(obj_size <= slab_bytes, "object larger than slab in '%s'",
                _name.c_str());
    _objsPerSlab = slab_bytes / obj_size;
}

KmemCache::~KmemCache()
{
    // Free every backing frame still held, live objects included;
    // subsystems are expected to have drained first, but teardown
    // must not leak simulated frames. Collect first, free after:
    // TierManager::free charges time, and charged time can dispatch
    // events that land back in this cache's lists mid-walk.
    std::vector<Frame *> frames;
    for (const uint64_t key : sortedSnapshot(_partial)) {
        SlabList &group = _partial.at(key);
        for (Slab *slab : group) {
            if (slab->frame)
                frames.push_back(slab->frame);
            slab->frame = nullptr;
        }
    }
    for (Slab *slab : _emptyPool) {
        if (slab->frame)
            frames.push_back(slab->frame);
        slab->frame = nullptr;
    }
    // Full slabs are not on any list; sweep the pool for the rest.
    for (Slab &slab : _slabPool) {
        if (slab.frame)
            frames.push_back(slab.frame);
        slab.frame = nullptr;
    }
    for (Frame *frame : frames)
        _tiers.free(frame);
}

void
KmemCache::unlinkPartial(Slab *slab)
{
    const auto group = _partial.find(slab->groupKey);
    group->second.remove(slab);
    if (group->second.empty() && slab->groupKey != 0)
        _partial.erase(group);
}

KmemCache::Slab *
KmemCache::newSlab(const TierPreference &pref, uint64_t group_key)
{
    Frame *frame = _tiers.alloc(_order, _cls, _klocMode, pref);
    if (!frame)
        return nullptr;
    frame->owner = nullptr;

    Slab *slab;
    if (!_freeSlabRecords.empty()) {
        slab = _freeSlabRecords.back();
        _freeSlabRecords.pop_back();
    } else {
        slab = &_slabPool.emplace_back();
    }
    slab->frame = frame;
    slab->groupKey = group_key;
    slab->inUse = 0;
    _livePages += frame->pages();
    // Buddy-path allocation cost for the new slab page(s).
    _mem.machine().cpuWork(kSlowPathCost);
    return slab;
}

void
KmemCache::releaseSlab(Slab *slab)
{
    KLOC_ASSERT(slab->inUse == 0, "releasing a populated slab");
    _livePages -= slab->frame->pages();
    _tiers.free(slab->frame);
    slab->frame = nullptr;
    _freeSlabRecords.push_back(slab);
}

SlabRef
KmemCache::alloc(const TierPreference &pref, uint64_t group_key)
{
    // Magazine fast path applies only to the shared (ungrouped) pool.
    const unsigned cpu = _mem.machine().currentCpu();
    bool fast_path = false;
    if (group_key == 0 && _magazine[cpu] > 0) {
        --_magazine[cpu];
        fast_path = true;
    }
    _mem.machine().cpuWork(fast_path ? kFastPathCost : kSlowPathCost);

    SlabList &partial = _partial[group_key];
    Slab *slab = nullptr;
    if (!partial.empty()) {
        slab = partial.back();
    } else if (!_emptyPool.empty() &&
               (group_key == 0 || _klocMode)) {
        // Recycle a cached empty slab (re-keyed to this group).
        slab = _emptyPool.back();
        _emptyPool.pop_back();
        slab->groupKey = group_key;
        partial.pushBack(slab);
    } else {
        slab = newSlab(pref, group_key);
        if (!slab)
            return SlabRef{};
        partial.pushBack(slab);
    }

    ++slab->inUse;
    ++_liveObjects;
    ++_totalAllocs;
    if (slab->inUse == _objsPerSlab) {
        // Slab is now full; drop from the partial list.
        unlinkPartial(slab);
    }

    // Touch the slab page: freelist pop + object header init.
    _mem.touch(slab->frame, _objSize, AccessType::Write);

    SlabRef ref;
    ref.cache = this;
    ref.frame = slab->frame;
    ref.slab = slab;
    return ref;
}

void
KmemCache::free(SlabRef &ref)
{
    KLOC_ASSERT(ref.valid() && ref.cache == this,
                "freeing foreign slab object into '%s'", _name.c_str());
    auto *slab = static_cast<Slab *>(ref.slab);
    KLOC_ASSERT(slab->inUse > 0, "slab underflow in '%s'", _name.c_str());

    const unsigned cpu = _mem.machine().currentCpu();
    bool fast_path = false;
    if (slab->groupKey == 0 && _magazine[cpu] < kMagazineCap) {
        ++_magazine[cpu];
        fast_path = true;
    }
    _mem.machine().cpuWork(fast_path ? kFastPathCost : kSlowPathCost);

    const bool was_full = slab->inUse == _objsPerSlab;
    --slab->inUse;
    --_liveObjects;

    if (was_full && slab->inUse > 0) {
        _partial[slab->groupKey].pushBack(slab);
    } else if (slab->inUse == 0) {
        if (slab->partialHook.linked())
            unlinkPartial(slab);
        if (_emptyPool.size() < kEmptyRetention) {
            _emptyPool.push_back(slab);
        } else {
            releaseSlab(slab);
        }
    }

    ref = SlabRef{};
}

} // namespace kloc
