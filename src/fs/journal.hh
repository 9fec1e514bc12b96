/**
 * @file
 * Write-ahead journal in the style of jbd2.
 *
 * Metadata updates add journal records (slab journal_heads) to the
 * running transaction; every kPageSize of logged metadata also pins a
 * journal data page. Commit writes the transaction's pages to the
 * on-disk journal area sequentially and frees all records — making
 * journal objects some of the shortest-lived kernel objects the
 * paper measures.
 *
 * Commit can fail two ways. A write error that survives the block
 * layer's retries aborts the commit: the journal cursor rewinds to
 * the transaction's start and the records stay queued for the next
 * commit attempt. A crash (injected at the JournalCommitCrash fault
 * site, before/between/after the page writes) freezes the
 * transaction; the next commit() call replays it from the start of
 * its journal area before any new transaction may commit — the
 * write-ahead contract.
 */

#ifndef KLOC_FS_JOURNAL_HH
#define KLOC_FS_JOURNAL_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/kloc_manager.hh"
#include "fs/block_layer.hh"
#include "fs/objects.hh"
#include "kobj/kernel_heap.hh"
#include "sim/daemon.hh"

namespace kloc {

/** jbd2-like journal over the block layer. */
class Journal
{
  public:
    /** CPU cost of adding one record to the running transaction. */
    static constexpr Tick kLogCost{250};
    /** Journal area start sector (writes are sequential within it). */
    static constexpr uint64_t kJournalStartSector = 1ULL << 30;

    Journal(KernelHeap &heap, KlocManager *kloc, BlockLayer &block);
    ~Journal();

    /**
     * Log @p meta_bytes of metadata for @p knode's inode into the
     * running transaction.
     */
    void logMetadata(Knode *knode, bool active, uint64_t inode_id,
                     Bytes meta_bytes);

    /**
     * Commit the running transaction: write its pages to the journal
     * area and free every record.
     * @param foreground true when a caller blocks on it (fsync).
     */
    void commit(bool foreground);

    /**
     * Untrack any in-flight records/pages belonging to @p inode_id
     * from their knode (called before the knode is destroyed on
     * unlink). The objects stay allocated until commit. Costs the
     * inode's own in-flight objects, not the whole transaction.
     */
    void detachInode(uint64_t inode_id);

    /** Schedule periodic background commits every @p period. */
    void startCommitTimer(Tick period) { _commitTimer.start(period); }

    void stopCommitTimer() { _commitTimer.stop(); }

    uint64_t committedTxs() const { return _committedTxs; }
    uint64_t liveRecords() const { return _records.size(); }

    /** True between a crash and its successful replay. */
    bool crashed() const { return _crashed; }
    uint64_t crashes() const { return _crashes; }
    uint64_t recoveredTxs() const { return _recoveredTxs; }
    uint64_t commitAborts() const { return _commitAborts; }

  private:
    /** Replay the crashed transaction. @return true on success. */
    bool recover(bool foreground);

    /** Free every queued record and page (transaction complete). */
    void releaseTransaction();

    /** One inode's knode-tracked records and pages, each in log order. */
    struct InodeObjects
    {
        std::vector<JournalRecord *> records;
        std::vector<JournalPage *> pages;
    };

    KernelHeap &_heap;
    KlocManager *_kloc;
    BlockLayer &_block;

    uint64_t _txId = 1;
    std::vector<std::unique_ptr<JournalRecord>> _records;
    std::vector<std::unique_ptr<JournalPage>> _pages;
    /**
     * Index of the queued objects still tracked by a knode, by inode
     * id: detachInode's lookup. Only ever probed by key, never walked.
     * Empties whenever the queues are taken.
     */
    std::unordered_map<uint64_t, InodeObjects> _byInode;
    Bytes _pendingMetaBytes{};
    uint64_t _journalSector = kJournalStartSector;
    uint64_t _committedTxs = 0;
    bool _committing = false;
    bool _crashed = false;
    uint64_t _crashedTx = 0;
    uint64_t _crashes = 0;
    uint64_t _recoveredTxs = 0;
    uint64_t _commitAborts = 0;
    Daemon _commitTimer;
};

} // namespace kloc

#endif // KLOC_FS_JOURNAL_HH
