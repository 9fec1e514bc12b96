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
 *
 * Every simulated page reference reads and writes a Frame, so its
 * size is the cache footprint of a page sweep. The fields a touch
 * uses (tier, class, LRU hook and flags, access and write ticks)
 * come first, in 48 bytes, and the whole record is 80 bytes: Linux
 * holds struct page to 64 bytes for the same reason.
 * A Nomad shadow copy's location lives in TierManager's side table;
 * the frame keeps only the flag that one exists.
 */

#ifndef KLOC_MEM_FRAME_HH
#define KLOC_MEM_FRAME_HH

#include <cstddef>
#include <cstdint>

#include "base/intrusive_list.hh"
#include "base/logging.hh"
#include "base/objclass.hh"
#include "base/units.hh"

namespace kloc {

/** Metadata for one simulated physical frame allocation. */
struct Frame
{
    // -- what a touch reads and writes -----------------------------------
    ListHook lruHook;              ///< tier active/inactive list
    Tick lastAccessTick{};
    Tick lastWriteTick{};          ///< for transactional-copy aborts
    TierId tier = kInvalidTier;
    ObjClass objClass = ObjClass::App;

    // Linux-style LRU state.
    bool onActiveList = false;
    bool referenced = false;       ///< accessed since last scan

    // Dirty state (writeback interacts with migration).
    bool dirty = false;

    // Hwpoison: an uncorrectable error was injected on this frame and
    // containment could not relocate it (pinned, unmovable, or no
    // space). The physical block is quarantined when the frame frees.
    bool poisoned = false;

    // -- placement and migration state ------------------------------------

    /**
     * A Nomad-style non-exclusive shadow copy backs this frame: the
     * slow-tier block it was transactionally promoted from stays
     * allocated, so a clean demotion is a free remap. Where the copy
     * sits is TierManager's record (TierManager::shadowOf).
     */
    bool shadowed = false;
    uint8_t order = 0;             ///< buddy order (covers 2^order pages)
    bool relocatable = true;       ///< slab-legacy frames are not
    uint8_t migrateCount = 0;      ///< saturating 8-bit counter (§4.5)
    uint8_t scanMarks = 0;         ///< scan-confirmation counter
    uint16_t pinCount = 0;         ///< pinned frames cannot move; pin()

    Pfn pfn = kInvalidPfn;
    Tick allocTick{};

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

    /** Hold the frame in place (in-flight I/O); undo with unpin(). */
    void
    pin()
    {
        KLOC_ASSERT(pinCount < UINT16_MAX, "pin count overflow");
        ++pinCount;
    }

    void
    unpin()
    {
        KLOC_ASSERT(pinCount > 0, "unpin of an unpinned frame");
        --pinCount;
    }

    /** True while a slow-tier shadow copy backs this frame. */
    bool hasShadow() const { return shadowed; }
};

// A touch moves the lines that hold the fields it uses; keep them in
// the first 48 bytes and the record at 80.
static_assert(sizeof(Frame) <= 80, "Frame grew past 80 bytes");
static_assert(offsetof(Frame, lruHook) + sizeof(ListHook) <= 48);
static_assert(offsetof(Frame, lastAccessTick) + sizeof(Tick) <= 48);
static_assert(offsetof(Frame, lastWriteTick) + sizeof(Tick) <= 48);
static_assert(offsetof(Frame, tier) + sizeof(TierId) <= 48);
static_assert(offsetof(Frame, objClass) < 48);
static_assert(offsetof(Frame, onActiveList) < 48);
static_assert(offsetof(Frame, referenced) < 48);
static_assert(offsetof(Frame, dirty) < 48);
static_assert(offsetof(Frame, poisoned) < 48);

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
