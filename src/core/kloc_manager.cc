#include "core/kloc_manager.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kloc {

namespace {

/** CPU cost per rbtree node visited during a descent (cached). */
constexpr Tick kTreeStepCost{10};
/** CPU cost per per-CPU list entry scanned. */
constexpr Tick kListStepCost{5};
/** Daemon bookkeeping cost per object visited. */
constexpr Tick kObjVisitCost{30};
/** Knodes processed per daemon queue drain. */
constexpr size_t kQueueBatch = 128;

} // namespace

KlocManager::KlocManager(KernelHeap &heap, MigrationEngine &migrator)
    : _heap(heap), _migrator(migrator), _machine(heap.mem().machine())
{
    _knodeCache = std::make_unique<KmemCache>(
        _heap.mem(), _heap.tiers(), "knode_cache", kKnodeSize,
        ObjClass::KlocMeta);
    _perCpu.resize(_machine.cpuCount());
    _migrator.setFrameOwner(this);
    _daemon.setBody([this](Tick period) {
        runDemotePass();
        runWatermarkPass();
        return period;
    });
}

KlocManager::~KlocManager()
{
    // Freeing the knodes below charges time: no pass or soft-offline
    // may run over the half-torn-down kmap.
    _daemon.stop();
    _softOfflines.clear();
    _migrator.setFrameOwner(nullptr);
    // Tear down any knodes subsystems did not unmap.
    while (Knode *knode = _kmap.first()) {
        _kmap.erase(knode);
        if (knode->backing.valid())
            _knodeCache->free(knode->backing);
        delete knode;
    }
}

namespace {

/** Remove @p knode from @p list; returns the entries removed. */
size_t
dropFromList(std::vector<Knode *> &list, const Knode *knode)
{
    // Remove every occurrence: unmapKnode relies on this leaving no
    // dangling entry behind even if a reentrant event handler ever
    // managed to duplicate one.
    const auto kept = std::remove(list.begin(), list.end(), knode);
    const auto removed = static_cast<size_t>(list.end() - kept);
    list.erase(kept, list.end());
    return removed;
}

} // namespace

void
KlocManager::setTierOrder(const TierPreference &order)
{
    KLOC_ASSERT(!order.empty(), "empty tier order");
    KLOC_ASSERT(_heap.tiers().tierCount() <= Knode::kMaxTiers,
                "%zu tiers; knodes keep residency lists for %zu",
                _heap.tiers().tierCount(), Knode::kMaxTiers);
    _tierOrder = order;
    _memLimits.assign(_heap.tiers().tierCount(), Bytes{});
}

void
KlocManager::touchKnodeMeta(Knode *knode, AccessType type)
{
    if (knode->backing.valid())
        _heap.mem().touch(knode->backing.frame, kKnodeSize, type);
}

Knode *
KlocManager::mapKnode(uint64_t inode_id)
{
    if (!_enabled)
        return nullptr;
    KLOC_ASSERT(!_tierOrder.empty(), "KLOC enabled without tier order");

    // A new kernel object is born here, not per-event churn: one
    // knode per mapped inode, freed at unmap.
    // klint:allow(hot-path-alloc): object birth, not per-event churn.
    auto *knode = new Knode(inode_id);
    // Knodes are slab-allocated for speed and always placed in fast
    // memory; they are few and small (§4.2.2).
    knode->backing = _knodeCache->alloc(_tierOrder);
    knode->lastActiveTick = _machine.now();

    const uint64_t visits_before = _kmap.nodesVisited();
    const bool inserted = _kmap.insert(knode);
    KLOC_ASSERT(inserted, "duplicate knode for inode %llu",
                static_cast<unsigned long long>(inode_id));
    _machine.cpuWork(static_cast<int64_t>(_kmap.nodesVisited() -
                                       visits_before) * kTreeStepCost);
    touchKnodeMeta(knode, AccessType::Write);

    cacheOnCpu(knode);
    ++_stats.knodesCreated;
    _machine.tracer().emit(TraceEventType::KnodeMap, inode_id);
    noteMetadata();
    return knode;
}

void
KlocManager::unmapKnode(Knode *knode)
{
    KLOC_ASSERT(knode->rbCache.empty() && knode->rbSlab.empty(),
                "unmapping knode %llu with %llu live objects",
                static_cast<unsigned long long>(knode->id),
                static_cast<unsigned long long>(knode->objectCount()));
    _machine.tracer().emit(TraceEventType::KnodeUnmap, knode->id);
    for (auto &list : _perCpu)
        _perCpuEntries -= dropFromList(list, knode);
    _kmap.erase(knode);
    _knodeTreeVisitsRetired += knode->rbCache.nodesVisited() +
                               knode->rbSlab.nodesVisited();
    if (knode->backing.valid())
        _knodeCache->free(knode->backing);
    ++_stats.knodesDeleted;
    delete knode;
}

Knode *
KlocManager::findKnode(uint64_t inode_id)
{
    if (!_enabled)
        return nullptr;
    // Fast path: the current CPU's recently-used knode list (§4.3).
    if (_usePerCpuLists) {
        auto &list = _perCpu[_machine.currentCpu()];
        for (size_t i = 0; i < list.size(); ++i) {
            if (list[i]->id == inode_id) {
                Knode *knode = list[i];
                // MRU rotation first: cpuWork() drains due events,
                // and a handler that re-enters findKnode() would
                // otherwise mutate the list under our index and turn
                // the rotation into a duplicating wrong-element
                // erase (then unmap leaves a dangling entry).
                const auto hit = list.begin() + static_cast<ptrdiff_t>(i);
                std::rotate(list.begin(), hit, hit + 1);
                ++_stats.perCpuHits;
                _machine.cpuWork(static_cast<int64_t>(i + 1) *
                                 kListStepCost);
                return knode;
            }
        }
        _machine.cpuWork(static_cast<int64_t>(list.size()) * kListStepCost);
    }

    // Slow path: the global kmap rbtree.
    const uint64_t visits_before = _kmap.nodesVisited();
    Knode *knode = _kmap.find(inode_id);
    _machine.cpuWork(static_cast<int64_t>(_kmap.nodesVisited() -
                                       visits_before) * kTreeStepCost);
    ++_stats.perCpuMisses;
    if (knode && _usePerCpuLists)
        cacheOnCpu(knode);
    return knode;
}

uint64_t
KlocManager::treeNodesVisited() const
{
    uint64_t total = _kmap.nodesVisited() + _knodeTreeVisitsRetired;
    for (Knode *knode = _kmap.first(); knode != nullptr;
         knode = _kmap.next(knode)) {
        total += knode->rbCache.nodesVisited() +
                 knode->rbSlab.nodesVisited();
    }
    return total;
}

void
KlocManager::cacheOnCpu(Knode *knode)
{
    if (!_usePerCpuLists)
        return;
    auto &list = _perCpu[_machine.currentCpu()];
    if (!list.empty() && list.front() == knode)
        return;  // already most recent; the list holds no duplicates
    _perCpuEntries -= dropFromList(list, knode);
    list.insert(list.begin(), knode);
    ++_perCpuEntries;
    if (list.size() > kPerCpuCap) {
        list.pop_back();
        --_perCpuEntries;
    }
    noteMetadata();
}

ObjList &
KlocManager::residencyList(Knode *knode, KernelObject *obj)
{
    if (obj->page() == nullptr)
        return knode->slabObjs;
    const auto tier = static_cast<size_t>(obj->frame()->tier);
    KLOC_ASSERT(tier < Knode::kMaxTiers, "page on untracked tier %zu", tier);
    return knode->pagesOn[tier];
}

void
KlocManager::addObject(Knode *knode, KernelObject *obj)
{
    KLOC_ASSERT(obj->knode == nullptr, "object already tracked");
    KLOC_ASSERT(obj->backed(), "tracking an unbacked object");
    obj->objId = knode->nextObjId++;
    KLOC_ASSERT(knode->nextObjId != 0, "object ids of knode %llu wrapped",
                static_cast<unsigned long long>(knode->id));
    obj->knode = knode;

    Knode::ObjTree &tree = (_splitTrees && !obj->page()) ? knode->rbSlab
                                                         : knode->rbCache;
    const uint64_t visits_before = tree.nodesVisited();
    const bool inserted = tree.insert(obj);
    KLOC_ASSERT(inserted, "duplicate object id in knode tree");
    // Ids only grow, so the slab list stays in objId order.
    residencyList(knode, obj).pushBack(obj);
    // The descent's charge below can run a migration of the page, and
    // the move must relink it, so its frame names it from here. A
    // poisoning is the KLOC's to contain only after ObjTrack.
    const bool page_backed = obj->page() != nullptr;
    if (page_backed) {
        obj->frame()->owner = obj;
        _midTrack.push_back(obj);
    }
    // Tree nodes are hot kernel metadata: the descent is CPU work on
    // cached lines, not cold memory traffic.
    _machine.cpuWork(static_cast<int64_t>(tree.nodesVisited() -
                                       visits_before) * kTreeStepCost);
    if (page_backed)
        _midTrack.pop_back();
    if (Frame *frame = obj->frame()) {
        frame->owner = obj;
        _machine.tracer().emit(TraceEventType::ObjTrack, knode->id,
                               static_cast<uint64_t>(obj->kind),
                               frame->tier, frame->pfn);
    }

    ++_trackedObjects;
    ++_stats.objectsTracked;
    noteMetadata();
}

void
KlocManager::removeObject(KernelObject *obj)
{
    auto *knode = static_cast<Knode *>(obj->knode);
    KLOC_ASSERT(knode != nullptr, "removing untracked object");
    // Mirror addObject's tree selection (do not flip setSplitTrees
    // while objects are tracked).
    Knode::ObjTree &tree = (_splitTrees && !obj->page()) ? knode->rbSlab
                                                         : knode->rbCache;
    tree.erase(obj);
    residencyList(knode, obj).remove(obj);
    obj->knode = nullptr;
    Frame *frame = obj->frame();
    _machine.tracer().emit(TraceEventType::ObjUntrack, knode->id,
                           static_cast<uint64_t>(obj->kind), frame->tier,
                           frame->pfn);
    frame->owner = nullptr;
    _machine.cpuWork(3 * kTreeStepCost);
    KLOC_ASSERT(_trackedObjects > 0, "tracked object underflow");
    --_trackedObjects;
}

std::vector<Knode *>
KlocManager::lruKnodes(size_t max)
{
    std::vector<Knode *> all;
    all.reserve(_kmap.size());
    for (Knode *knode = _kmap.first(); knode != nullptr;
         knode = _kmap.next(knode)) {
        all.push_back(knode);
    }
    _machine.backgroundTraffic(static_cast<int64_t>(all.size()) *
                               kTreeStepCost);
    std::sort(all.begin(), all.end(), [](const Knode *a, const Knode *b) {
        if (a->inuse != b->inuse)
            return !a->inuse;  // inactive first
        if (a->age != b->age)
            return a->age > b->age;  // older (colder) first
        return a->lastActiveTick < b->lastActiveTick;
    });
    if (all.size() > max)
        all.resize(max);
    return all;
}

void
KlocManager::setMemLimit(TierId tier, Bytes bytes)
{
    KLOC_ASSERT(tier >= 0 &&
                static_cast<size_t>(tier) < _memLimits.size(),
                "bad tier for memsize");
    _memLimits[static_cast<size_t>(tier)] = bytes;
}

bool
KlocManager::overMemLimit(TierId tier) const
{
    if (tier < 0 || static_cast<size_t>(tier) >= _memLimits.size())
        return false;
    const Bytes cap = _memLimits[static_cast<size_t>(tier)];
    if (cap == 0)
        return false;
    const Tier &t = _heap.tiers().tier(tier);
    Bytes kernel_bytes{};
    for (unsigned c = 0; c < kNumObjClasses; ++c) {
        const auto cls = static_cast<ObjClass>(c);
        if (isKernelClass(cls))
            kernel_bytes += t.residentPages(cls) * kPageSize;
    }
    return kernel_bytes >= cap;
}

void
KlocManager::markActive(Knode *knode)
{
    const bool was_inactive = !knode->inuse;
    if (was_inactive)
        _machine.tracer().emit(TraceEventType::KnodeActivate, knode->id);
    knode->inuse = true;
    knode->age = 0;
    knode->lastCpu = static_cast<int>(_machine.currentCpu());
    knode->lastActiveTick = _machine.now();
    knode->pendingDemote = false;
    // Setting the active flag is "a fast operation" (§5): the knode
    // line is hot in cache on the syscall path.
    _machine.cpuWork(kListStepCost);
    cacheOnCpu(knode);
    // Re-activation does not bulk-promote: demoted objects return
    // through maybePromoteOnTouch() as they are actually re-used,
    // which keeps reverse migrations the small, cache-page-dominated
    // fraction the paper reports (4-12%, §4.4).
    (void)was_inactive;
}

void
KlocManager::maybePromoteOnTouch(Frame *frame, Knode *knode)
{
    if (!_enabled || !knode || !knode->inuse)
        return;
    // Promotion requires earned LRU standing (two touches activate a
    // frame), so single-pass streaming reads never promote.
    if (frame->tier == fastTier() || !frame->onActiveList)
        return;
    if (!classManaged(frame->objClass))
        return;
    // Promotions stop short of the demotion trigger so the two
    // passes cannot form a promote/demote conveyor, and respect the
    // sys_kloc_memsize cap like the allocation path does.
    const Tier &fast = _heap.tiers().tier(fastTier());
    if (fast.utilization() >= kPromoteCeiling)
        return;
    if (overMemLimit(fastTier()))
        return;
    const uint64_t pages = frame->pages();
    if (_migrator.migrateOne(frame, fastTier()))
        _stats.promotedPages += pages;
}

void
KlocManager::markInactive(Knode *knode)
{
    if (knode->inuse)
        _machine.tracer().emit(TraceEventType::KnodeInactivate, knode->id);
    knode->inuse = false;
    _machine.cpuWork(kListStepCost);
    if (!knode->pendingDemote) {
        // The whole KLOC is cold: queue immediate demotion without
        // waiting for LRU scans (§4.5).
        knode->pendingDemote = true;
        _demoteQueue.push_back(knode->id);
        noteMetadata();
    }
}

namespace {

bool
byObjId(const KernelObject *a, const KernelObject *b)
{
    return a->objId < b->objId;
}

} // namespace

void
KlocManager::collectBatch(Knode *knode, TierId dst,
                          std::vector<FrameRef> &batch)
{
    // Page objects off dst. Each has a frame of its own, so none
    // repeats a frame; the lists are by tier, not by id.
    _walkPages.clear();
    for (size_t t = 0; t < Knode::kMaxTiers; ++t) {
        if (static_cast<TierId>(t) == dst)
            continue;
        for (KernelObject *obj : knode->pagesOn[t]) {
            if (classManaged(obj->frame()->objClass))
                _walkPages.push_back(obj);
        }
    }
    std::sort(_walkPages.begin(), _walkPages.end(), byObjId);

    // Slab objects off dst, already in id order. Objects share slab
    // frames, and a frame joins the batch at its first object only.
    _walkSlabs.clear();
    for (KernelObject *obj : knode->slabObjs) {
        const Frame *frame = obj->frame();
        if (frame->tier != dst && classManaged(frame->objClass))
            _walkSlabs.push_back(obj);
    }
    if (_walkSlabs.size() > 1) {
        // Group by frame (tier and pfn name a live frame), keep each
        // group's lowest id, and restore id order.
        _walkByFrame.assign(_walkSlabs.begin(), _walkSlabs.end());
        std::sort(_walkByFrame.begin(), _walkByFrame.end(),
                  [](const KernelObject *a, const KernelObject *b) {
                      const Frame *fa = a->frame();
                      const Frame *fb = b->frame();
                      if (fa->tier != fb->tier)
                          return fa->tier < fb->tier;
                      if (fa->pfn != fb->pfn)
                          return fa->pfn < fb->pfn;
                      return a->objId < b->objId;
                  });
        _walkSlabs.clear();
        const Frame *last = nullptr;
        for (KernelObject *obj : _walkByFrame) {
            if (obj->frame() != last)
                _walkSlabs.push_back(obj);
            last = obj->frame();
        }
        std::sort(_walkSlabs.begin(), _walkSlabs.end(), byObjId);
    }

    // Split trees walk rbtree-cache (the page objects) first; one
    // tree walks every object in id order.
    batch.clear();
    batch.reserve(_walkPages.size() + _walkSlabs.size());
    auto append = [&batch](const KernelObject *obj) {
        batch.emplace_back(obj->frame());
    };
    if (_splitTrees) {
        std::for_each(_walkPages.begin(), _walkPages.end(), append);
        std::for_each(_walkSlabs.begin(), _walkSlabs.end(), append);
        return;
    }
    auto page = _walkPages.begin();
    auto slab = _walkSlabs.begin();
    while (page != _walkPages.end() || slab != _walkSlabs.end()) {
        const bool take_page =
            slab == _walkSlabs.end() ||
            (page != _walkPages.end() && byObjId(*page, *slab));
        append(take_page ? *page++ : *slab++);
    }
}

uint64_t
KlocManager::migrateKnodeObjects(Knode *knode, TierId dst)
{
    std::vector<FrameRef> batch;
    collectBatch(knode, dst, batch);
    _machine.backgroundTraffic(static_cast<int64_t>(knode->objectCount()) *
                               kObjVisitCost);
    if (batch.empty())
        return 0;
    return _migrator.migrate(batch, dst);
}

void
KlocManager::frameMoved(Frame *frame, TierId src)
{
    auto *obj = static_cast<KernelObject *>(frame->owner);
    if (obj->page() == nullptr)
        return;  // a slab frame: its objects keep their one list
    auto *knode = static_cast<Knode *>(obj->knode);
    knode->pagesOn[static_cast<size_t>(src)].remove(obj);
    residencyList(knode, obj).pushBack(obj);
}

void
KlocManager::framePoisoned(Frame *frame, TierId origin_tier, bool data_lost)
{
    const auto *obj = static_cast<const KernelObject *>(frame->owner);
    if (obj == nullptr ||
        std::find(_midTrack.begin(), _midTrack.end(), obj) !=
            _midTrack.end()) {
        return;  // frame backs no tracked object; nothing to contain
    }
    auto *knode = static_cast<Knode *>(obj->knode);
    if (data_lost) {
        knode->damaged = true;
        _machine.tracer().emit(TraceEventType::KlocDamaged, knode->id,
                               frame->tier, frame->pfn);
    }
    // Soft-offline the KLOC's sibling objects away from the tier
    // that took the error, madvise(MADV_SOFT_OFFLINE)-style. The
    // containment hook fires mid-access or mid-scan, so the bulk
    // migration is deferred to the event queue; the knode is
    // re-looked-up by inode id in case it died meanwhile.
    //
    // One soft-offline per knode, pending or running: the running
    // one's migration charges time, and a poisoning met there would
    // otherwise schedule the next one at now() inside it, nesting
    // without bound.
    const uint64_t inode = knode->id;
    auto [it, fresh] = _softOfflines.try_emplace(inode, *this, inode,
                                                 origin_tier);
    if (fresh)
        _machine.events().schedule(it->second, _machine.now());
}

KlocManager::SoftOffline::SoftOffline(KlocManager &manager, uint64_t inode,
                                      TierId origin)
    : Event(&SoftOffline::fire), manager(manager), inode(inode),
      origin(origin)
{}

void
KlocManager::SoftOffline::fire(Event &event)
{
    auto &job = static_cast<SoftOffline &>(event);
    KlocManager &manager = job.manager;
    const uint64_t inode = job.inode;
    manager.softOffline(inode, job.origin);
    manager._softOfflines.erase(inode);  // destroys job
}

void
KlocManager::softOffline(uint64_t inode, TierId origin_tier)
{
    Knode *target = findKnode(inode);
    if (target == nullptr || _tierOrder.empty())
        return;
    const TierPreference order = _heap.tiers().preferHealthy(_tierOrder);
    TierId dst = kInvalidTier;
    for (const TierId t : order) {
        if (t != origin_tier && _heap.tiers().tier(t).online()) {
            dst = t;
            break;
        }
    }
    if (dst == kInvalidTier)
        return;  // nowhere to shelter the siblings
    const uint64_t moved = migrateKnodeObjects(target, dst);
    _machine.tracer().emit(TraceEventType::SoftOffline, inode, moved);
}

uint64_t
KlocManager::runDemotePass()
{
    ++_stats.demotePasses;
    // Migration aggressiveness follows memory pressure (§4.1): with
    // plenty of free fast memory there is nothing to make room for,
    // so inactive KLOCs may stay where they are. Their entries are
    // drained (pendingDemote cleared); if pressure appears later the
    // watermark pass demotes the coldest knodes.
    if (!_tierOrder.empty() &&
        _heap.tiers().tier(fastTier()).utilization() < kLowWatermark) {
        while (!_demoteQueue.empty()) {
            Knode *knode = _kmap.find(_demoteQueue.front());
            _demoteQueue.pop_front();
            if (knode)
                knode->pendingDemote = false;
        }
        return 0;
    }
    uint64_t moved = 0;
    size_t budget = kQueueBatch;
    while (budget-- > 0 && !_demoteQueue.empty()) {
        const uint64_t id = _demoteQueue.front();
        _demoteQueue.pop_front();
        Knode *knode = _kmap.find(id);
        if (!knode || !knode->pendingDemote)
            continue;
        if (knode->inuse) {
            knode->pendingDemote = false;
            continue;  // re-activated while queued
        }
        if (_machine.now() - knode->lastActiveTick < kDemoteGrace) {
            // Closed only moments ago: files like LSM tables are
            // frequently reopened immediately; wait out the grace
            // window before paying a whole-KLOC migration.
            _demoteQueue.push_back(id);
            continue;
        }
        knode->pendingDemote = false;
        moved += migrateKnodeObjects(knode, slowTier());
    }
    _stats.demotedPages += moved;
    return moved;
}

uint64_t
KlocManager::runWatermarkPass()
{
    const Tier &fast = _heap.tiers().tier(fastTier());
    if (fast.utilization() < kHighWatermark)
        return 0;
    // Hysteresis: once over the high watermark, demote down to the
    // low watermark so the pass doesn't re-trigger every tick.
    uint64_t moved = 0;
    for (Knode *knode : lruKnodes(kQueueBatch)) {
        if (fast.utilization() < kLowWatermark)
            break;
        // Inactive KLOCs demote unconditionally; open files must be
        // genuinely idle ("accessed long ago", §3.2) — a burst of
        // syscall-free time like an fsync must not evict a hot file.
        const bool idle = _machine.now() - knode->lastActiveTick >
                          kActiveIdleThreshold;
        if (!knode->inuse || idle) {
            moved += migrateKnodeObjects(knode, slowTier());
        } else {
            // Scanned but spared: the knode ages (§4.3).
            ++knode->age;
        }
    }
    _stats.demotedPages += moved;
    return moved;
}

Bytes
KlocManager::metadataBytes() const
{
    return _kmap.size() * kKnodeSize +            // knode structures
           Bytes{_trackedObjects * 8} +           // rbtree pointers
           Bytes{_perCpuEntries * 16} +           // per-CPU list nodes
           Bytes{_demoteQueue.size() * 8};
}

void
KlocManager::noteMetadata()
{
    const Bytes current = metadataBytes();
    if (current > _peakMetadata)
        _peakMetadata = current;
}

} // namespace kloc
