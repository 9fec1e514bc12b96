/**
 * @file
 * Knode: the per-inode "table of contents" of the KLOC abstraction.
 *
 * Every file or socket inode owns one knode. The knode tracks every
 * kernel object created on behalf of that inode in two red-black
 * trees — rbtree-cache for page-backed objects and rbtree-slab for
 * slab-backed ones (§4.2.3) — so that when the OS decides the inode
 * is cold, all associated objects can be found and migrated en masse
 * without scanning page tables.
 *
 * The trees keep the paper's order; a walk that demotes the KLOC
 * does not have to visit them all. Each tracked object also sits on
 * one residency list: a page-backed object on the list of its
 * frame's tier, a slab object on the knode's one slab list. A walk
 * to tier t visits the page objects of the other tiers' lists and
 * the slab list, and finds every object that can be off t.
 */

#ifndef KLOC_CORE_KNODE_HH
#define KLOC_CORE_KNODE_HH

#include <cstdint>

#include "alloc/slab.hh"
#include "base/intrusive_list.hh"
#include "base/rbtree.hh"
#include "kobj/kobject.hh"

namespace kloc {

/** Key extractor for knode object trees. */
struct ObjIdKey
{
    uint64_t operator()(const KernelObject &obj) const { return obj.objId; }
};

/** A knode's residency list of tracked objects. */
using ObjList = IntrusiveList<KernelObject, &KernelObject::residencyHook>;

/** Per-inode kernel-object context. */
struct Knode
{
    using ObjTree = RbTree<KernelObject, &KernelObject::knodeHook, ObjIdKey>;

    /** Tiers a knode keeps page residency lists for. */
    static constexpr size_t kMaxTiers = 4;

    explicit Knode(uint64_t inode_id) : id(inode_id) {}

    Knode(const Knode &) = delete;
    Knode &operator=(const Knode &) = delete;

    /** Inode number this knode is bound to. */
    uint64_t id;

    /** Active flag: the file/socket is open and in use (§4.1). */
    bool inuse = true;

    /** Queued for the migration daemon's demote pass. */
    bool pendingDemote = false;
    /**
     * An uncorrectable memory error destroyed one of this KLOC's
     * objects (SIGBUS surfaced to the owner). Sticky: subsystems may
     * fail reads against a damaged inode until it is recreated.
     */
    bool damaged = false;

    /**
     * LRU age: reset to zero on access, incremented by scans that do
     * not evict (§4.3). Larger = colder.
     */
    uint32_t age = 0;

    /** CPU that last touched this knode (find_cpu API). */
    int lastCpu = -1;

    /** Monotonic id source for member objects. */
    uint32_t nextObjId = 1;

    Tick lastActiveTick{};

    /** Slab backing of the knode structure itself (64 B, fast mem). */
    SlabRef backing;

    /** Membership in the global kmap. */
    RbNode kmapHook;

    /** Page-backed member objects (page cache, journal pages, ...). */
    ObjTree rbCache;

    /** Slab-backed member objects (inode, dentry, extents, ...). */
    ObjTree rbSlab;

    /**
     * Page-backed members by the tier of their frame. A successful
     * migration relinks the object (KlocManager::frameMoved).
     */
    ObjList pagesOn[kMaxTiers];

    /**
     * Slab-backed members, in objId order: appended when tracked and
     * never relinked, since a slab frame's move changes no list.
     */
    ObjList slabObjs;

    uint64_t objectCount() const { return rbCache.size() + rbSlab.size(); }
};

/** Key extractor for the kmap. */
struct KnodeIdKey
{
    uint64_t operator()(const Knode &knode) const { return knode.id; }
};

} // namespace kloc

#endif // KLOC_CORE_KNODE_HH
