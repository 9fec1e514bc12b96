/**
 * @file
 * The virtual filesystem: syscall surface (create/open/close/read/
 * write/fsync/unlink), dentry cache, per-inode page caches, extent
 * maps, journalling, readahead, writeback, and page reclaim.
 *
 * This is the substrate most of the paper's kernel objects come
 * from. Every syscall marks the inode's KLOC active; close marks it
 * inactive; unlink deallocates (never migrates) its objects — the
 * three §3.2 lifecycle rules.
 */

#ifndef KLOC_FS_VFS_HH
#define KLOC_FS_VFS_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/kloc_manager.hh"
#include "fs/block_layer.hh"
#include "fs/device.hh"
#include "fs/journal.hh"
#include "fs/page_cache.hh"
#include "kobj/kernel_heap.hh"
#include "sim/daemon.hh"

namespace kloc {

/** Counters the experiments read off the filesystem. */
struct FsStats
{
    uint64_t creates = 0;
    uint64_t opens = 0;
    uint64_t closes = 0;
    uint64_t unlinks = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t readPageHits = 0;
    uint64_t readPageMisses = 0;
    uint64_t readaheadPages = 0;
    uint64_t reclaimedPages = 0;
    uint64_t writebackPages = 0;
    uint64_t cacheBypasses = 0;   ///< allocation failed even after reclaim
    uint64_t readErrors = 0;      ///< reads whose device I/O never succeeded
    uint64_t writebackErrors = 0; ///< writeback runs abandoned after retries
    uint64_t poisonRereads = 0;   ///< hwpoison recovery reads issued
};

/** The simulated filesystem. */
class FileSystem
{
  public:
    struct Config
    {
        bool dataBacked = false;
        Tick journalCommitPeriod = 50 * kMillisecond;
        Tick writebackPeriod = 10 * kMillisecond;
        FrameCount writebackBatch{1024};
        unsigned readaheadPages = 8;
        bool readaheadEnabled = true;
        unsigned dentryCacheCap = 4096;
        BlockDevice::Config device;
    };

    /** CPU cost of entering/leaving a filesystem system call. */
    static constexpr Tick kSyscallCost{200};
    /** File pages covered by one extent descriptor (2 MiB). */
    static constexpr uint64_t kPagesPerExtent = 512;
    /** Metadata bytes journalled per dirtied page. */
    static constexpr Bytes kMetaPerPage{128};

    FileSystem(KernelHeap &heap, KlocManager *kloc, const Config &config);
    ~FileSystem();

    FileSystem(const FileSystem &) = delete;
    FileSystem &operator=(const FileSystem &) = delete;

    // -- syscall surface ----------------------------------------------------

    /** Create and open a new file; returns fd or -1 if it exists. */
    int create(const std::string &name);

    /** Open an existing file; returns fd or -1 when absent. */
    int open(const std::string &name);

    /** Close @p fd; the inode's KLOC goes inactive at refcount 0. */
    void close(int fd);

    /**
     * Read @p length bytes at @p offset. Misses hit the device.
     * @param buf destination in data-backed mode (else ignored).
     * @return bytes read (clamped to file size).
     */
    Bytes read(int fd, Bytes offset, Bytes length, char *buf = nullptr);

    /**
     * Write @p length bytes at @p offset through the page cache,
     * journalling metadata and growing the extent map.
     */
    Bytes write(int fd, Bytes offset, Bytes length,
                const char *buf = nullptr);

    /** Flush the file's dirty pages and commit the journal. */
    void fsync(int fd);

    /**
     * ftruncate(): set the file length to @p length. Shrinking frees
     * (deallocates) cache pages and extent descriptors beyond the
     * new end; growing just extends the size (sparse).
     */
    bool truncate(int fd, Bytes length);

    /** Delete a closed file; frees (never migrates) its objects. */
    bool unlink(const std::string &name);

    bool exists(const std::string &name) const;

    /**
     * readdir(): enumerate every file name, allocating short-lived
     * directory buffers (one DirBuffer kernel object per 64 entries)
     * like getdents filling dirent pages.
     */
    std::vector<std::string> readdir();

    /**
     * readdir() for callers that need only how many names there are:
     * the same simulated work, with no names copied.
     * @return the number of names at entry.
     */
    size_t readdirCount();

    /** Flush all dirty state (umount-style). */
    void syncAll();

    // -- daemons ------------------------------------------------------------

    /** Start periodic writeback and journal commit. */
    void startDaemons();

    void stopDaemons();

    // -- hwpoison recovery --------------------------------------------------

    /**
     * Poison-recovery probe: can @p frame's bytes be rebuilt from
     * backing storage? True only for clean, up-to-date page-cache
     * pages owned by this filesystem. The MigrationEngine consults
     * this (via System's reread hook) before choosing the re-read
     * containment leg.
     */
    bool canRereadFrame(Frame *frame);

    /**
     * Re-read the page backing @p frame from the device through the
     * normal block-layer retry path (foreground). @return true when
     * the device read ultimately succeeded.
     */
    bool rereadFrame(Frame *frame);

    // -- memory pressure ----------------------------------------------------

    /**
     * Free up to @p target clean page-cache pages from the cold end
     * of the global list (dirty ones are written back first).
     * @return pages actually freed.
     */
    FrameCount reclaimPages(FrameCount target);

    // -- introspection ------------------------------------------------------

    const FsStats &stats() const { return _stats; }

    Bytes fileSize(const std::string &name) const;

    /** Total pages currently in all page caches. */
    uint64_t cachedPages() const { return _globalLru.size(); }

    uint64_t liveInodes() const { return _inodes.size(); }

    Journal &journal() { return *_journal; }
    BlockLayer &blockLayer() { return *_blockLayer; }
    BlockDevice &device() { return *_device; }
    KernelHeap &heap() { return _heap; }

    /** Knode of @p name's inode (nullptr when KLOC off / absent). */
    Knode *knodeOf(const std::string &name) const;

  private:
    struct InodeInfo
    {
        std::unique_ptr<Inode> inode;
        std::unique_ptr<PageCache> cache;
        std::vector<std::unique_ptr<Extent>> extents;
        Dentry *dentry = nullptr;   ///< owned by the dentry cache
        Knode *knode = nullptr;
        uint64_t lastReadIndex = ~0ULL;
        bool onDirtyList = false;
    };

    InodeInfo *infoForFd(int fd);
    PageCachePage *pageForFrame(const Frame *frame);
    InodeInfo *infoForId(uint64_t inode_id);
    const InodeInfo *infoForId(uint64_t inode_id) const;
    void markActive(InodeInfo &info);
    uint64_t sectorFor(uint64_t inode_id, uint64_t page_index) const;
    PageCachePage *getOrAllocPage(InodeInfo &info, uint64_t index,
                                  bool for_write);
    void touchGlobalLru(PageCachePage *page);
    void dropFromGlobalLru(PageCachePage *page);
    void ensureExtents(InodeInfo &info, uint64_t last_page);
    void chargeExtentLookup(InodeInfo &info, uint64_t page_index);
    void issueReadahead(InodeInfo &info, uint64_t next_index);
    /** @return pages successfully written back (failed runs stay
     *  dirty, so callers can detect lack of progress). */
    uint64_t writebackInode(InodeInfo &info, FrameCount max_pages,
                            bool foreground);
    Dentry *lookupDentry(const std::string &name);
    Dentry *insertDentry(const std::string &name, uint64_t inode_id,
                         Knode *knode, bool active);
    void evictDentries();
    void destroyInode(uint64_t inode_id);
    /** readdir's dirent loop over @p count names: one DirBuffer per
     *  64, each charged one write per name. */
    void chargeDirents(size_t count);
    /** Every file name, in name order (a copy: callers may unlink). */
    std::vector<std::string> nameSnapshot() const;

    KernelHeap &_heap;
    KlocManager *_kloc;
    Config _config;

    std::unique_ptr<BlockDevice> _device;
    std::unique_ptr<BlockLayer> _blockLayer;
    std::unique_ptr<Journal> _journal;

    /** Name table, ordered: readdir and teardown walk it in name
     *  order without sorting. */
    std::map<std::string, uint64_t> _names;
    std::unordered_map<uint64_t, InodeInfo> _inodes;

    /** Dentry LRU cache. */
    IntrusiveList<Dentry, &Dentry::dcacheHook> _dentryLru;
    std::unordered_map<std::string, Dentry *> _dentryIndex;

    /** fd table. */
    std::vector<uint64_t> _fdTable;   // fd -> inode id (0 = free)
    std::vector<int> _freeFds;

    /** Global page LRU for reclaim. */
    IntrusiveList<PageCachePage, &PageCachePage::globalLruHook> _globalLru;

    /** Inodes with dirty pages, ordered: writeback walks them in id
     *  order without sorting. */
    std::set<uint64_t> _dirtyInodes;

    /**
     * Depth-indexed scratch buffers for writebackInode's dirty-page
     * gang walk. Writeback can re-enter (a device charge can dispatch
     * the writeback daemon's tick), so each nesting level owns a
     * stable buffer; the unique_ptr indirection keeps outer levels'
     * references valid when a deeper level grows the pool. Steady
     * state allocates nothing.
     */
    std::vector<std::unique_ptr<std::vector<PageCachePage *>>>
        _writebackScratch;
    unsigned _writebackDepth = 0;

    FsStats _stats;
    Daemon _writeback;
};

} // namespace kloc

#endif // KLOC_FS_VFS_HH
