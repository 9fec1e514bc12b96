/**
 * @file
 * KernelObject: common base for every simulated kernel object.
 *
 * An object records its kind, its backing (one slab slot or one
 * whole page frame), and its membership hooks for the owning knode:
 * the red-black tree that is the "table of contents" at the heart of
 * the KLOC abstraction (Fig. 1), and the residency list that tells a
 * KLOC walk which objects can be off a tier.
 */

#ifndef KLOC_KOBJ_KOBJECT_HH
#define KLOC_KOBJ_KOBJECT_HH

#include <cstdint>

#include "alloc/slab.hh"
#include "base/intrusive_list.hh"
#include "base/rbtree.hh"
#include "kobj/kinds.hh"

namespace kloc {

/** Base of all simulated kernel objects. */
struct KernelObject
{
    explicit KernelObject(KobjKind k) : kind(k) {}

    KernelObject(const KernelObject &) = delete;
    KernelObject &operator=(const KernelObject &) = delete;
    virtual ~KernelObject() = default;

    KobjKind kind;

    /** Key within the owning knode's tree (monotonic per-knode id). */
    uint32_t objId = 0;

    /**
     * Backing. A slab object holds its slot here; a page-backed one
     * holds only `slab.frame`, its own page. An object is never both,
     * so the two share one frame pointer.
     */
    SlabRef slab;

    /** Membership in the owning knode's rbtree-slab / rbtree-cache. */
    RbNode knodeHook;
    /** Membership in the owning knode's residency list. */
    ListHook residencyHook;
    /** Owning Knode, when KLOC tracking is enabled (else nullptr). */
    void *knode = nullptr;

    /** When the backing was allocated (object-lifetime accounting). */
    Tick allocTick{};

    /** Frame currently backing this object. */
    Frame *frame() const { return slab.frame; }

    /** The object's own page frame, when page-backed. */
    Frame *
    page() const
    {
        return slab.valid() ? nullptr : slab.frame;
    }

    /** Simulated size of this object in bytes. */
    Bytes
    size() const
    {
        return kobjSize(kind);
    }

    bool backed() const { return slab.frame != nullptr; }
};

// Hundreds of thousands of objects stay live in a large run.
static_assert(sizeof(KernelObject) <= 104,
              "KernelObject outgrew its 104-byte budget");

} // namespace kloc

#endif // KLOC_KOBJ_KOBJECT_HH
