/**
 * @file
 * Simulated physical page frame metadata.
 *
 * A Frame is the unit of placement and migration: it records which
 * tier currently backs it, its buddy order, the coarse object class
 * occupying it (for Fig. 2a/5b/5c accounting and the Fig. 5c class
 * filter), Linux-style LRU state, and the 8-bit migration counter the
 * paper uses to damp ping-ponging (§4.5).
 *
 * Frame objects have stable identity for their whole allocation
 * lifetime: migration re-homes the frame (new tier + pfn) in place,
 * so kernel objects can hold Frame* across moves.
 */

#ifndef KLOC_MEM_FRAME_HH
#define KLOC_MEM_FRAME_HH

#include <cstdint>

#include "base/intrusive_list.hh"
#include "base/objclass.hh"
#include "base/units.hh"

namespace kloc {

/** Metadata for one simulated physical frame allocation. */
struct Frame
{
    TierId tier = kInvalidTier;
    Pfn pfn = kInvalidPfn;
    uint8_t order = 0;             ///< buddy order (covers 2^order pages)
    ObjClass objClass = ObjClass::App;

    // Placement/migration state.
    bool relocatable = true;       ///< slab-legacy frames are not
    uint8_t migrateCount = 0;      ///< saturating 8-bit counter (§4.5)
    uint32_t pinCount = 0;         ///< pinned frames cannot move

    // Linux-style LRU state.
    bool onActiveList = false;
    bool referenced = false;       ///< accessed since last scan
    uint8_t scanMarks = 0;         ///< scan-confirmation counter

    // Dirty state (writeback interacts with migration).
    bool dirty = false;

    // Hwpoison: an uncorrectable error was injected on this frame and
    // containment could not relocate it (pinned, unmovable, or no
    // space). The physical block is quarantined when the frame frees.
    bool poisoned = false;

    Tick allocTick{};
    Tick lastAccessTick{};
    Tick lastWriteTick{};          ///< for transactional-copy aborts

    // Nomad-style non-exclusive shadow copy: the slow-tier location
    // this frame was transactionally promoted from. While set, those
    // buddy pages stay allocated so a clean demotion is a free remap.
    TierId shadowTier = kInvalidTier;
    Pfn shadowPfn = kInvalidPfn;
    Tick shadowSince{};            ///< promotion time (staleness check)

    ListHook lruHook;              ///< tier active/inactive list

    /**
     * The tracked kernel object this frame backs, if any (set by
     * KlocManager::addObject, cleared by removeObject). A shared slab
     * frame names the object last tracked on it.
     */
    void *owner = nullptr;

    /**
     * Bumped every time the frame is freed; FrameRef uses it to
     * detect stale references to recycled Frame slots.
     */
    uint64_t generation = 0;

    /** Pages covered by this allocation. */
    FrameCount pages() const { return FrameCount{1ULL << order}; }

    /** Bytes covered by this allocation. */
    Bytes bytes() const { return pages() * kPageSize; }

    bool pinned() const { return pinCount > 0; }

    /** True while a slow-tier shadow copy backs this frame. */
    bool hasShadow() const { return shadowTier != kInvalidTier; }

    /** Shadow still matches memory: no write since the promotion. */
    bool shadowClean() const { return lastWriteTick <= shadowSince; }
};

/**
 * Generation-checked reference to a Frame. Migration candidates are
 * collected first and moved later; in between, charged time can run
 * asynchronous kernel work that frees frames. A FrameRef detects
 * that the slot was freed (or freed and recycled) in the interim.
 */
struct FrameRef
{
    Frame *frame = nullptr;
    uint64_t generation = 0;

    FrameRef() = default;
    explicit FrameRef(Frame *f) : frame(f), generation(f->generation) {}

    /** True while the referenced allocation is still alive. */
    bool
    valid() const
    {
        return frame != nullptr && frame->tier != kInvalidTier &&
               frame->generation == generation;
    }

    Frame *operator->() const { return frame; }
    Frame *get() const { return frame; }
};

} // namespace kloc

#endif // KLOC_MEM_FRAME_HH
