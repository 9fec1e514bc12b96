/**
 * @file
 * Binary buddy allocator over one tier's physical frame space,
 * modelled on Linux's zoned buddy allocator (mm/page_alloc.c).
 *
 * Allocation returns the lowest-addressed suitable block so runs are
 * deterministic. Orders range 0..kMaxOrder (4 KB .. 4 MB), matching
 * MAX_ORDER-1 = 10 in the kernel.
 *
 * Each order's free blocks live in a hierarchical bitmap indexed by
 * block number (pfn >> order), so the lowest free block is one
 * find-first-set per summary level and insert/erase are bit
 * operations: no per-block heap node (docs/PERF.md).
 */

#ifndef KLOC_MEM_BUDDY_ALLOCATOR_HH
#define KLOC_MEM_BUDDY_ALLOCATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "trace/trace.hh"

namespace kloc {

/** Buddy allocator over pfns [0, frames). */
class BuddyAllocator
{
  public:
    static constexpr unsigned kMaxOrder = 10;

    /**
     * @param frames Total frames managed. Every frame is allocatable:
     * frames past the last aligned max-order block are covered by
     * smaller blocks, down to order 0.
     */
    explicit BuddyAllocator(FrameCount frames);

    /**
     * Allocate a 2^order-page block.
     * @return base pfn, or kInvalidPfn when no block fits.
     */
    Pfn alloc(unsigned order);

    /**
     * Free the block at @p pfn previously allocated with @p order.
     * Panics if a free block of @p order or larger already covers
     * @p pfn (a double free, also after the block coalesced).
     */
    void free(Pfn pfn, unsigned order);

    /**
     * Retire the allocated block at @p pfn: it leaves the used
     * accounting but never re-enters the free sets, so it can never
     * be handed out again (hwpoison containment). Irreversible for
     * the allocator's lifetime.
     */
    void quarantine(Pfn pfn, unsigned order);

    /** Frames currently allocated. */
    FrameCount usedFrames() const { return _usedFrames; }

    /** Frames currently free. */
    FrameCount
    freeFrames() const
    {
        return _totalFrames - _usedFrames - _quarantinedFrames;
    }

    /** Frames permanently retired by quarantine(). */
    FrameCount quarantinedFrames() const { return _quarantinedFrames; }

    FrameCount totalFrames() const { return _totalFrames; }

    /** Largest order that can currently be satisfied; -1 if none. */
    int maxAvailableOrder() const;

    /** True when a free block of any order covers @p pfn. */
    bool isFree(Pfn pfn) const;

    /**
     * Verify internal consistency; panics on corruption (tests): free
     * blocks are inside the frame space and disjoint, the summary
     * levels match their bitmaps, and used + free + quarantined
     * frames add up to the total.
     */
    void validate() const;

    /** Route split/coalesce events to @p tracer, tagged @p tier. */
    void
    setTrace(Tracer *tracer, int tier)
    {
        _trace = tracer;
        _traceTier = tier;
    }

  private:
    /**
     * The free blocks of one order: a bit per block number, plus
     * summary levels of 64-bit words above it. A summary bit is set
     * iff the word below it is nonzero, and the top level is one
     * word.
     */
    class FreeSet
    {
      public:
        FreeSet(FrameCount frames, unsigned order);

        bool empty() const { return _words.back() == 0; }
        /** True when a free block of this order contains @p pfn. */
        bool covers(Pfn pfn) const;
        void insert(Pfn head);
        void erase(Pfn head);
        /** Head of the lowest free block; the set must be nonempty. */
        Pfn lowest() const;

        /** Heads of every free block, lowest first (validate). */
        std::vector<Pfn> heads() const;
        /** Panic unless each summary level matches the one below. */
        void validateSummaries() const;

      private:
        /** Levels that 2^64 blocks could need: 64^11 > 2^64. */
        static constexpr unsigned kMaxLevels = 11;

        unsigned _order;
        unsigned _levels = 0;
        /** Block count of level 0; padding bits past it stay zero. */
        uint64_t _blocks;
        /** Offset of each level in _words; level 0 starts at 0. */
        std::array<size_t, kMaxLevels> _levelStart{};
        std::vector<uint64_t> _words;
    };

    /** Panic if a free block of @p order or larger covers @p pfn. */
    void assertNotFree(Pfn pfn, unsigned order, const char *what) const;

    Tracer *_trace = nullptr;
    int _traceTier = -1;
    FrameCount _totalFrames;
    FrameCount _usedFrames{};
    FrameCount _quarantinedFrames{};
    /** Per-order free sets, indexed by order. */
    std::vector<FreeSet> _free;
};

} // namespace kloc

#endif // KLOC_MEM_BUDDY_ALLOCATOR_HH
