#include "mem/lru.hh"

#include "mem/migration.hh"

namespace kloc {

bool
LruEngine::maybePoison(Frame *frame, FaultSite site, PoisonOrigin origin)
{
    // Only consult while a MigrationEngine is alive, so stacks without
    // one draw no per-site fault RNG and their traces are unchanged by
    // the poison machinery existing.
    if (_migrator == nullptr || frame->poisoned)
        return false;
    if (!_machine.faults().shouldFire(site))
        return false;
    _migrator->poisonFrame(frame, origin);
    return true;
}

void
LruEngine::onAccessedSlow(Frame *frame)
{
    if (maybePoison(frame, FaultSite::FramePoisonAccess,
                    PoisonOrigin::Access)) {
        // Containment ran; the frame may have been re-homed. Its new
        // location starts cold rather than inheriting this touch.
        return;
    }
    if (!frame->lruHook.linked())
        return;
    Tier &t = _tiers.tier(frame->tier);
    if (frame->onActiveList) {
        frame->referenced = true;
        return;
    }
    if (frame->referenced) {
        // Second touch while inactive: promote (mark_page_accessed).
        t.inactiveList().remove(frame);
        t.activeList().pushFront(frame);
        frame->onActiveList = true;
        frame->referenced = false;
        _machine.tracer().emit(TraceEventType::LruActivate, frame->tier,
                               frame->pfn);
    } else {
        frame->referenced = true;
    }
}

void
LruEngine::deactivate(Frame *frame)
{
    frame->referenced = false;
    if (!frame->lruHook.linked()) {
        frame->onActiveList = false;
        return;
    }
    Tier &t = _tiers.tier(frame->tier);
    if (frame->onActiveList) {
        t.activeList().remove(frame);
        t.inactiveList().pushFront(frame);
        frame->onActiveList = false;
        _machine.tracer().emit(TraceEventType::LruDeactivate, frame->tier,
                               frame->pfn);
    }
}

void
LruEngine::requeue(Frame *frame)
{
    if (!frame->lruHook.linked())
        return;
    _tiers.tier(frame->tier).lruList(*frame).moveToFront(frame);
}

void
LruEngine::scanTier(TierId tier, FrameCount max_scan, ScanResult &out)
{
    out.clear();
    Tier &t = _tiers.tier(tier);
    // Scans emit LruDeactivate in bulk; stage the run and deliver it
    // in one pass instead of paying listener fan-out per frame.
    TraceBatch batch(_machine.tracer());

    // Pass 1: age the active list from the cold end. Referenced
    // frames get another round; unreferenced ones deactivate.
    // Containment can evacuate frames off this tier mid-scan, so
    // both passes re-check list emptiness rather than trusting the
    // length snapshot.
    uint64_t budget = max_scan;
    uint64_t active_len = t.activeList().size();
    while (budget > 0 && active_len > 0 && !t.activeList().empty()) {
        Frame *frame = t.activeList().back();
        --active_len;
        --budget;
        ++out.scanned;
        out.pagesVisited += 1ULL << frame->order;
        if (maybePoison(frame, FaultSite::FramePoisonScan,
                        PoisonOrigin::Scan)) {
            continue;
        }
        if (frame->referenced) {
            frame->referenced = false;
            t.activeList().moveToFront(frame);
        } else {
            t.activeList().remove(frame);
            t.inactiveList().pushFront(frame);
            frame->onActiveList = false;
            _machine.tracer().emit(TraceEventType::LruDeactivate,
                                   frame->tier, frame->pfn);
        }
    }

    // Pass 2: find cold frames at the tail of the inactive list.
    uint64_t inactive_len = t.inactiveList().size();
    while (budget > 0 && inactive_len > 0 && !t.inactiveList().empty()) {
        Frame *frame = t.inactiveList().back();
        --inactive_len;
        --budget;
        ++out.scanned;
        out.pagesVisited += 1ULL << frame->order;
        if (maybePoison(frame, FaultSite::FramePoisonScan,
                        PoisonOrigin::Scan)) {
            continue;
        }
        if (frame->referenced) {
            // Referenced while inactive: second chance.
            frame->referenced = false;
            t.inactiveList().moveToFront(frame);
        } else {
            // Cold. Rotate so the next scan sees different frames,
            // and report as a demotion candidate. Frames poisoned in
            // place are unmovable; never offer them.
            t.inactiveList().moveToFront(frame);
            if (!frame->poisoned)
                out.demoteCandidates.emplace_back(frame);
        }
    }

    _totalScanned += out.scanned;
    _totalPagesVisited += out.pagesVisited;
    _machine.tracer().emit(TraceEventType::LruScan, tier, out.scanned,
                           t.activeList().size(), t.inactiveList().size());
    // kswapd-style scans run on a dedicated thread; their cost leaks
    // into foreground time as background work. An order-k frame has
    // 2^k page-table entries to visit, so cost follows pages, not
    // frames — and truncated scans still pay for what they looked at.
    _machine.backgroundTraffic(
        kScanCostPerPage * static_cast<int64_t>(out.pagesVisited));
}

void
LruEngine::collectHot(TierId tier, FrameCount max,
                      std::vector<FrameRef> &out)
{
    out.clear();
    Tier &t = _tiers.tier(tier);
    uint64_t scanned = 0;
    uint64_t pages = 0;
    for (Frame *frame : t.activeList()) {
        if (out.size() >= max)
            break;
        ++scanned;
        pages += 1ULL << frame->order;
        // Two-scan confirmation, like NUMA-balancing's fault
        // sampling: a frame is only promotion-eligible once a prior
        // scan has already seen it hot. This is the detection
        // latency that makes scan-driven promotion miss short-lived
        // kernel objects (§3.3).
        if (frame->scanMarks == 0) {
            frame->scanMarks = 1;
            continue;
        }
        if (!frame->poisoned)
            out.emplace_back(frame);
    }
    _totalScanned += scanned;
    _totalPagesVisited += pages;
    _machine.backgroundTraffic(
        kScanCostPerPage * static_cast<int64_t>(pages));
}

void
LruEngine::collectReferenced(TierId tier, FrameCount max,
                             std::vector<FrameRef> &out)
{
    out.clear();
    Tier &t = _tiers.tier(tier);
    uint64_t scanned = 0;
    uint64_t pages = 0;
    for (Frame *frame : t.activeList()) {
        if (out.size() >= max)
            break;
        ++scanned;
        pages += 1ULL << frame->order;
        if (!frame->poisoned)
            out.emplace_back(frame);
    }
    for (Frame *frame : t.inactiveList()) {
        if (out.size() >= max)
            break;
        ++scanned;
        pages += 1ULL << frame->order;
        if (frame->referenced && !frame->poisoned)
            out.emplace_back(frame);
    }
    _totalScanned += scanned;
    _totalPagesVisited += pages;
    _machine.backgroundTraffic(
        kScanCostPerPage * static_cast<int64_t>(pages));
}

uint64_t
LruEngine::activeCount(TierId tier)
{
    return _tiers.tier(tier).activeList().size();
}

uint64_t
LruEngine::inactiveCount(TierId tier)
{
    return _tiers.tier(tier).inactiveList().size();
}

} // namespace kloc
