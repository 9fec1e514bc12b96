/**
 * @file
 * The kernel-object taxonomy of Table 1: every filesystem and
 * networking object the paper tracks, with realistic per-object
 * sizes, the allocator each uses in a stock kernel, and the coarse
 * accounting class used in the evaluation figures.
 *
 * Table 1 lives in one place, kKobjTable: one constexpr row per
 * KobjKind, in enum order. The accessors below are lookups into it.
 */

#ifndef KLOC_KOBJ_KINDS_HH
#define KLOC_KOBJ_KINDS_HH

#include <cstdint>

#include "base/units.hh"
#include "mem/frame.hh"

namespace kloc {

/** Concrete kernel object kinds (Table 1, plus radix-tree nodes). */
enum class KobjKind : uint8_t {
    // Slab-allocated (kmalloc / kmem_cache_alloc in a stock kernel).
    Inode = 0,      ///< per-file inode (FS and network)
    Dentry,         ///< name resolution entry
    JournalRecord,  ///< journal descriptor / journal_head
    Extent,         ///< contiguous-block grouping structure
    Bio,            ///< block I/O request structure
    BlkMqCtx,       ///< block layer multi-queue context
    RadixNode,      ///< page-cache radix tree interior node
    Sock,           ///< socket object
    SkbuffHead,     ///< packet buffer header
    DirBuffer,      ///< directory read buffer

    // Page-backed (page_alloc / vmalloc in a stock kernel).
    PageCachePage,  ///< buffer-cache page
    JournalPage,    ///< journal data buffer page
    SkbuffData,     ///< packet payload buffer
    RxBuf,          ///< network receive driver buffer

    NumKinds
};

inline constexpr unsigned kNumKobjKinds =
    static_cast<unsigned>(KobjKind::NumKinds);

/** One Table 1 row. A kind's slab cache is named "<name>_cache". */
struct KobjDescriptor
{
    KobjKind kind;
    const char *name;  ///< diagnostic name
    Bytes size;        ///< bytes per object
    ObjClass cls;      ///< coarse accounting class
    bool slab;         ///< slab-allocated in a stock kernel, else paged
};

/**
 * Table 1. Sizes mirror the corresponding Linux structures (ext4,
 * jbd2, block, net) rounded to their slab size classes: inode is
 * ext4_inode_info, journal_record is journal_head, extent is
 * extent_status, radix_node is radix_tree_node, sock is the
 * tcp_sock class and skbuff is sk_buff.
 */
inline constexpr KobjDescriptor kKobjTable[] = {
    {KobjKind::Inode,         "inode",           Bytes{1024}, ObjClass::FsSlab,    true},
    {KobjKind::Dentry,        "dentry",          Bytes{192},  ObjClass::FsSlab,    true},
    {KobjKind::JournalRecord, "journal_record",  Bytes{120},  ObjClass::Journal,   true},
    {KobjKind::Extent,        "extent",          Bytes{64},   ObjClass::FsSlab,    true},
    {KobjKind::Bio,           "bio",             Bytes{200},  ObjClass::BlockIo,   true},
    {KobjKind::BlkMqCtx,      "blk_mq_ctx",      Bytes{384},  ObjClass::BlockIo,   true},
    {KobjKind::RadixNode,     "radix_node",      Bytes{576},  ObjClass::FsSlab,    true},
    {KobjKind::Sock,          "sock",            Bytes{1088}, ObjClass::SockBuf,   true},
    {KobjKind::SkbuffHead,    "skbuff",          Bytes{232},  ObjClass::SockBuf,   true},
    {KobjKind::DirBuffer,     "dir_buffer",      Bytes{1024}, ObjClass::FsSlab,    true},
    {KobjKind::PageCachePage, "page_cache_page", kPageSize,   ObjClass::PageCache, false},
    {KobjKind::JournalPage,   "journal_page",    kPageSize,   ObjClass::Journal,   false},
    {KobjKind::SkbuffData,    "skbuff_data",     kPageSize,   ObjClass::SockBuf,   false},
    {KobjKind::RxBuf,         "rx_buf",          kPageSize,   ObjClass::SockBuf,   false},
};

/** True when kKobjTable holds one row per kind, in enum order. */
constexpr bool
kobjTableInEnumOrder()
{
    unsigned k = 0;
    for (const KobjDescriptor &row : kKobjTable) {
        if (row.kind != static_cast<KobjKind>(k++))
            return false;
    }
    return k == kNumKobjKinds;
}

static_assert(kobjTableInEnumOrder(),
              "kKobjTable needs one row per KobjKind, in enum order");

/** The Table 1 row of @p kind. */
constexpr const KobjDescriptor &
kobjDescriptor(KobjKind kind)
{
    return kKobjTable[static_cast<unsigned>(kind)];
}

/** Bytes per object of @p kind. */
constexpr Bytes kobjSize(KobjKind kind) { return kobjDescriptor(kind).size; }

/** Coarse accounting class for @p kind. */
constexpr ObjClass kobjClass(KobjKind kind) { return kobjDescriptor(kind).cls; }

/** True when a stock kernel would slab-allocate @p kind. */
constexpr bool kobjIsSlab(KobjKind kind) { return kobjDescriptor(kind).slab; }

/** Diagnostic name of @p kind. */
constexpr const char *kobjKindName(KobjKind kind) { return kobjDescriptor(kind).name; }

} // namespace kloc

#endif // KLOC_KOBJ_KINDS_HH
