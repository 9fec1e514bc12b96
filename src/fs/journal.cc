#include "fs/journal.hh"

#include <algorithm>

namespace kloc {

Journal::Journal(KernelHeap &heap, KlocManager *kloc, BlockLayer &block)
    : _heap(heap), _kloc(kloc), _block(block),
      _commitTimer(heap.mem().machine())
{
    _commitTimer.setBody([this](Tick period) {
        commit(/*foreground=*/false);
        return period;
    });
}

Journal::~Journal()
{
    // Drop any uncommitted transaction state. This is an abort, not a
    // commit, but it still releases journal objects — open a detach
    // window so the invariant checker sees a sanctioned release.
    Tracer &tracer = _heap.mem().machine().tracer();
    tracer.emit(TraceEventType::JournalDetachStart, 0);
    releaseTransaction();
    tracer.emit(TraceEventType::JournalDetachEnd, 0);
}

void
Journal::logMetadata(Knode *knode, bool active, uint64_t inode_id,
                     Bytes meta_bytes)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kLogCost);

    auto rec = std::make_unique<JournalRecord>();
    rec->inodeId = inode_id;
    rec->txId = _txId;
    const uint64_t group = knode ? knode->id : 0;
    if (!_heap.allocBacking(*rec, active, group))
        return;  // exhausted: drop the record, keep running
    if (_kloc && knode)
        _kloc->addObject(knode, rec.get());
    _heap.touchObject(*rec, AccessType::Write);
    // Index and queue with no charged time in between, so a commit
    // dispatched by the touch cannot split the two.
    if (rec->knode)
        _byInode[inode_id].records.push_back(rec.get());
    _records.push_back(std::move(rec));

    // Every page worth of logged metadata pins a journal buffer page.
    _pendingMetaBytes += meta_bytes;
    while (_pendingMetaBytes >= kPageSize) {
        _pendingMetaBytes -= kPageSize;
        auto page = std::make_unique<JournalPage>();
        page->txId = _txId;
        page->inodeId = inode_id;
        if (!_heap.allocBacking(*page, active, group))
            break;
        if (_kloc && knode)
            _kloc->addObject(knode, page.get());
        _heap.touchObject(*page, AccessType::Write);
        if (page->knode)
            _byInode[inode_id].pages.push_back(page.get());
        _pages.push_back(std::move(page));
    }
}

void
Journal::releaseTransaction()
{
    // Take the queues (and empty their index) first, release after.
    // removeObject/freeBacking charge time, and a dispatched event
    // re-entering the journal — the commit timer firing mid-teardown,
    // say — must see the transaction as already gone, not half
    // released.
    std::vector<std::unique_ptr<JournalRecord>> records =
        std::move(_records);
    _records.clear();
    std::vector<std::unique_ptr<JournalPage>> pages = std::move(_pages);
    _pages.clear();
    _byInode.clear();
    for (auto &rec : records) {
        if (_kloc && rec->knode)
            _kloc->removeObject(rec.get());
        _heap.freeBacking(*rec);
    }
    for (auto &page : pages) {
        if (_kloc && page->knode)
            _kloc->removeObject(page.get());
        _heap.freeBacking(*page);
    }
}

void
Journal::commit(bool foreground)
{
    // Charging time below dispatches async events, which can include
    // our own commit timer: guard against re-entering mid-iteration.
    if (_committing)
        return;
    if (_crashed) {
        // Write-ahead contract: the crashed transaction must replay
        // before anything newer commits.
        _committing = true;
        recover(foreground);
        _committing = false;
        return;
    }
    if (_records.empty() && _pages.empty())
        return;
    _committing = true;
    Machine &machine = _heap.mem().machine();
    Tracer &tracer = machine.tracer();
    FaultInjector &faults = machine.faults();
    const uint64_t tx_start = _journalSector;
    tracer.emit(TraceEventType::JournalCommitStart, _txId, _records.size(),
                _pages.size(), foreground ? 1 : 0);

    // A crash freezes the transaction where it stands: records and
    // pages stay queued, the cursor rewinds to the transaction start,
    // and the next commit() replays the whole thing.
    auto crash = [&](uint64_t pages_written) {
        tracer.emit(TraceEventType::JournalCrash, _txId, pages_written);
        _crashed = true;
        _crashedTx = _txId;
        ++_crashes;
        _journalSector = tx_start;
        _committing = false;
    };

    // Crash point 1: after the transaction is sealed, before any
    // journal write reaches the device.
    if (faults.shouldFire(FaultSite::JournalCommitCrash)) {
        crash(0);
        return;
    }

    // Write the transaction's buffer pages to the journal area.
    // Journal writes are sequential by construction, so they batch
    // into large bios (jbd2 submits whole descriptor blocks).
    constexpr size_t batch_pages = 128;
    uint64_t pages_written = 0;
    for (size_t i = 0; i < _pages.size(); i += batch_pages) {
        const size_t run = std::min(batch_pages, _pages.size() - i);
        for (size_t j = i; j < i + run; ++j)
            // klint:allow(reentrancy-hazard): _committing is latched for the whole batch loop, so charged time cannot re-enter commit and free _pages
            _heap.touchObject(*_pages[j], AccessType::Read);
        const IoStatus status =
            _block.submit(nullptr, false, _journalSector, run * kPageSize,
                          /*write=*/true, foreground);
        if (status != IoStatus::Ok) {
            // The journal area write never made it even after the
            // block layer's retries: abort this commit, rewind the
            // cursor, and keep the transaction queued for the next
            // attempt.
            tracer.emit(TraceEventType::JournalCommitAbort, _txId);
            ++_commitAborts;
            _journalSector = tx_start;
            _committing = false;
            return;
        }
        _journalSector += run * kPageSize / BlockDevice::kSectorSize;
        pages_written += run;
        // Crash point 2: between journal batch writes.
        if (faults.shouldFire(FaultSite::JournalCommitCrash)) {
            crash(pages_written);
            return;
        }
    }

    // Crash point 3: pages durable, but the commit record (the free
    // of the in-memory transaction) never happens.
    if (faults.shouldFire(FaultSite::JournalCommitCrash)) {
        crash(pages_written);
        return;
    }

    // Transaction done: free every record and page.
    releaseTransaction();
    tracer.emit(TraceEventType::JournalCommitEnd, _txId);
    ++_txId;
    ++_committedTxs;
    _committing = false;
}

bool
Journal::recover(bool foreground)
{
    Tracer &tracer = _heap.mem().machine().tracer();
    tracer.emit(TraceEventType::JournalReplayStart, _crashedTx,
                _records.size(), _pages.size());

    // Rewrite the whole transaction from its start sector (the crash
    // rewound the cursor there). Replay consults no crash points —
    // the injected crash already happened; recovery is the part we
    // are proving correct.
    const uint64_t replay_start = _journalSector;
    constexpr size_t batch_pages = 128;
    bool ok = true;
    for (size_t i = 0; i < _pages.size(); i += batch_pages) {
        const size_t run = std::min(batch_pages, _pages.size() - i);
        for (size_t j = i; j < i + run; ++j)
            // klint:allow(reentrancy-hazard): _committing is latched for the whole batch loop, so charged time cannot re-enter commit and free _pages
            _heap.touchObject(*_pages[j], AccessType::Read);
        const IoStatus status =
            _block.submit(nullptr, false, _journalSector, run * kPageSize,
                          /*write=*/true, foreground);
        if (status != IoStatus::Ok) {
            ok = false;
            break;
        }
        _journalSector += run * kPageSize / BlockDevice::kSectorSize;
    }
    if (!ok) {
        // Device still failing: stay crashed, retry at the next
        // commit. Nothing was freed, so no update is lost.
        _journalSector = replay_start;
        tracer.emit(TraceEventType::JournalReplayEnd, _crashedTx, 0);
        return false;
    }

    // Replayed durably: release the transaction inside the replay
    // window and resume normal numbering after the recovered tx.
    releaseTransaction();
    tracer.emit(TraceEventType::JournalReplayEnd, _crashedTx, 1);
    ++_committedTxs;
    ++_recoveredTxs;
    _txId = _crashedTx + 1;
    _crashed = false;
    _pendingMetaBytes = Bytes{};
    return true;
}

void
Journal::detachInode(uint64_t inode_id)
{
    Tracer &tracer = _heap.mem().machine().tracer();
    tracer.emit(TraceEventType::JournalDetachStart, inode_id);
    auto it = _byInode.find(inode_id);
    if (it != _byInode.end()) {
        // Take the inode's lists out of the index before untracking:
        // a second detach, or a record logged meanwhile, finds a
        // fresh entry instead of this one.
        const InodeObjects objs = std::move(it->second);
        _byInode.erase(it);
        // removeObject charges time, and charged time can fire the
        // commit timer. Latch _committing so a timer tick cannot run
        // releaseTransaction and free the objects these lists point
        // at (save/restore: detach may itself run inside a commit).
        const bool was_committing = _committing;
        _committing = true;
        for (JournalRecord *rec : objs.records) {
            if (rec->knode)
                _kloc->removeObject(rec);
        }
        for (JournalPage *page : objs.pages) {
            if (page->knode)
                _kloc->removeObject(page);
        }
        _committing = was_committing;
    }
    tracer.emit(TraceEventType::JournalDetachEnd, inode_id);
}

} // namespace kloc
