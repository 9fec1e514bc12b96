#include "mem/buddy_allocator.hh"

#include <bit>

#include "base/logging.hh"

namespace kloc {

namespace {

constexpr unsigned kWordShift = 6;  // 64 bits per bitmap word
constexpr uint64_t kWordMask = 63;

constexpr uint64_t
wordsFor(uint64_t bits)
{
    return (bits + kWordMask) >> kWordShift;
}

} // namespace

BuddyAllocator::FreeSet::FreeSet(FrameCount frames, unsigned order)
    : _order(order), _blocks(((frames - 1) >> order) + 1)
{
    // Ceil division: the block holding the last frame gets a bit even
    // when it does not fit, so free() can probe any buddy below the
    // frame space. Summary levels stack until one word covers all.
    uint64_t bits = _blocks;
    size_t start = 0;
    do {
        _levelStart[_levels++] = start;
        bits = wordsFor(bits);
        start += bits;
    } while (bits > 1);
    _words.assign(start, 0);
}

bool
BuddyAllocator::FreeSet::covers(Pfn pfn) const
{
    const uint64_t block = pfn >> _order;
    return (_words[block >> kWordShift] >> (block & kWordMask)) & 1;
}

void
BuddyAllocator::FreeSet::insert(Pfn head)
{
    uint64_t index = head >> _order;
    for (unsigned level = 0; level < _levels; ++level) {
        uint64_t &word = _words[_levelStart[level] + (index >> kWordShift)];
        const bool was_empty = word == 0;
        word |= 1ULL << (index & kWordMask);
        if (!was_empty)
            return;
        index >>= kWordShift;
    }
}

void
BuddyAllocator::FreeSet::erase(Pfn head)
{
    uint64_t index = head >> _order;
    for (unsigned level = 0; level < _levels; ++level) {
        uint64_t &word = _words[_levelStart[level] + (index >> kWordShift)];
        word &= ~(1ULL << (index & kWordMask));
        if (word != 0)
            return;
        index >>= kWordShift;
    }
}

Pfn
BuddyAllocator::FreeSet::lowest() const
{
    // Descend from the top word: each level's lowest set bit names
    // the lowest nonempty word of the level below.
    uint64_t index = 0;
    for (unsigned level = _levels; level-- > 0;) {
        const uint64_t word = _words[_levelStart[level] + index];
        index = (index << kWordShift) |
            static_cast<uint64_t>(std::countr_zero(word));
    }
    return Pfn{index << _order};
}

std::vector<Pfn>
BuddyAllocator::FreeSet::heads() const
{
    std::vector<Pfn> out;
    for (uint64_t w = 0; w < wordsFor(_blocks); ++w) {
        for (uint64_t word = _words[w]; word != 0; word &= word - 1) {
            const uint64_t block = (w << kWordShift) |
                static_cast<uint64_t>(std::countr_zero(word));
            out.push_back(Pfn{block << _order});
        }
    }
    return out;
}

void
BuddyAllocator::FreeSet::validateSummaries() const
{
    uint64_t bits = _blocks;
    for (unsigned level = 0; level < _levels; ++level) {
        const uint64_t words = wordsFor(bits);
        const uint64_t *below = &_words[_levelStart[level]];
        for (uint64_t w = 0; w < words; ++w) {
            const bool partial = w + 1 == words && (bits & kWordMask) != 0;
            const uint64_t valid =
                partial ? (1ULL << (bits & kWordMask)) - 1 : ~0ULL;
            KLOC_ASSERT((below[w] & ~valid) == 0,
                        "order %u level %u word %llu: padding bit set",
                        _order, level, static_cast<unsigned long long>(w));
            if (level + 1 == _levels)
                continue;
            const uint64_t *above = &_words[_levelStart[level + 1]];
            const bool summary =
                (above[w >> kWordShift] >> (w & kWordMask)) & 1;
            KLOC_ASSERT(summary == (below[w] != 0),
                        "order %u level %u: summary bit of word %llu is "
                        "stale", _order, level + 1,
                        static_cast<unsigned long long>(w));
        }
        bits = words;
    }
}

BuddyAllocator::BuddyAllocator(FrameCount frames)
    : _totalFrames(frames)
{
    KLOC_ASSERT(frames > 0, "buddy allocator over empty frame space");
    _free.reserve(kMaxOrder + 1);
    for (unsigned order = 0; order <= kMaxOrder; ++order)
        _free.emplace_back(frames, order);
    // Seed the free sets with maximal aligned blocks. Order 0 always
    // fits, so every frame lands in some block.
    Pfn pfn{};
    while (pfn < frames) {
        unsigned order = kMaxOrder;
        // Largest order that is aligned at pfn and fits below frames.
        while (order > 0 &&
               ((pfn & ((1ULL << order) - 1)) != 0 ||
                pfn + (1ULL << order) > frames)) {
            --order;
        }
        _free[order].insert(pfn);
        pfn += 1ULL << order;
    }
}

bool
BuddyAllocator::isFree(Pfn pfn) const
{
    for (unsigned k = 0; k <= kMaxOrder; ++k) {
        if (_free[k].covers(pfn))
            return true;
    }
    return false;
}

void
BuddyAllocator::assertNotFree(Pfn pfn, unsigned order,
                              const char *what) const
{
    for (unsigned k = order; k <= kMaxOrder; ++k) {
        KLOC_ASSERT(!_free[k].covers(pfn),
                    "%s of pfn %llu order %u: free order-%u block "
                    "covers it", what, static_cast<unsigned long long>(pfn),
                    order, k);
    }
}

Pfn
BuddyAllocator::alloc(unsigned order)
{
    KLOC_ASSERT(order <= kMaxOrder, "order %u too large", order);
    // Find the smallest order with a free block.
    unsigned avail = order;
    while (avail <= kMaxOrder && _free[avail].empty())
        ++avail;
    if (avail > kMaxOrder)
        return kInvalidPfn;

    const Pfn pfn = _free[avail].lowest();
    _free[avail].erase(pfn);
    // Split the block down to the requested order, returning the
    // low half and freeing the high halves.
    while (avail > order) {
        --avail;
        _free[avail].insert(pfn + (1ULL << avail));
        if (_trace) {
            _trace->emit(TraceEventType::BuddySplit, _traceTier,
                         pfn + (1ULL << avail), avail);
        }
    }
    _usedFrames += FrameCount{1ULL << order};
    return pfn;
}

void
BuddyAllocator::free(Pfn pfn, unsigned order)
{
    KLOC_ASSERT(order <= kMaxOrder, "order %u too large", order);
    KLOC_ASSERT(pfn + (1ULL << order) <= _totalFrames,
                "free beyond frame space");
    KLOC_ASSERT((pfn & ((1ULL << order) - 1)) == 0,
                "misaligned free of pfn %llu order %u",
                static_cast<unsigned long long>(pfn), order);
    assertNotFree(pfn, order, "double free");
    _usedFrames -= FrameCount{1ULL << order};

    // Coalesce with the buddy while possible. The buddy is aligned at
    // order, so a covering free block of that order starts there.
    while (order < kMaxOrder) {
        const Pfn buddy{pfn ^ (1ULL << order)};
        if (buddy >= _totalFrames || !_free[order].covers(buddy))
            break;
        _free[order].erase(buddy);
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
        if (_trace)
            _trace->emit(TraceEventType::BuddyCoalesce, _traceTier, pfn,
                         order);
    }
    _free[order].insert(pfn);
}

void
BuddyAllocator::quarantine(Pfn pfn, unsigned order)
{
    KLOC_ASSERT(order <= kMaxOrder, "order %u too large", order);
    KLOC_ASSERT(pfn + (1ULL << order) <= _totalFrames,
                "quarantine beyond frame space");
    KLOC_ASSERT((pfn & ((1ULL << order) - 1)) == 0,
                "misaligned quarantine of pfn %llu order %u",
                static_cast<unsigned long long>(pfn), order);
    assertNotFree(pfn, order, "quarantine");
    // The block moves from used to quarantined accounting but stays
    // out of the free sets, so alloc() can never return it and the
    // coalescing walk in free() (which only merges blocks found in a
    // free set) can never absorb it into a larger free block.
    _usedFrames -= FrameCount{1ULL << order};
    _quarantinedFrames += FrameCount{1ULL << order};
}

int
BuddyAllocator::maxAvailableOrder() const
{
    for (int order = kMaxOrder; order >= 0; --order) {
        if (!_free[order].empty())
            return order;
    }
    return -1;
}

void
BuddyAllocator::validate() const
{
    uint64_t free_frames = 0;
    for (unsigned order = 0; order <= kMaxOrder; ++order) {
        _free[order].validateSummaries();
        for (const Pfn pfn : _free[order].heads()) {
            KLOC_ASSERT(pfn + (1ULL << order) <= _totalFrames,
                        "free block at pfn %llu order %u past the "
                        "frame space",
                        static_cast<unsigned long long>(pfn), order);
            // Blocks of one order are disjoint by construction; a
            // larger free block covering this one would overlap it.
            for (unsigned k = order + 1; k <= kMaxOrder; ++k) {
                KLOC_ASSERT(!_free[k].covers(pfn),
                            "free blocks overlap: pfn %llu order %u "
                            "inside a free order-%u block",
                            static_cast<unsigned long long>(pfn), order, k);
            }
            free_frames += 1ULL << order;
        }
    }
    // Checked without wrapping: a double free that slipped through
    // would wrap usedFrames() below zero.
    KLOC_ASSERT(_usedFrames <= _totalFrames &&
                    _quarantinedFrames <= _totalFrames - _usedFrames,
                "used %llu + quarantined %llu frames exceed the %llu "
                "total", static_cast<unsigned long long>(_usedFrames),
                static_cast<unsigned long long>(_quarantinedFrames),
                static_cast<unsigned long long>(_totalFrames));
    KLOC_ASSERT(free_frames == freeFrames(),
                "free frame accounting mismatch: %llu vs %llu",
                static_cast<unsigned long long>(free_frames),
                static_cast<unsigned long long>(freeFrames()));
}

} // namespace kloc
