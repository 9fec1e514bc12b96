/**
 * @file
 * Buddy allocator tests: split/coalesce correctness, alignment,
 * determinism, exhaustion behaviour, double-free detection, a random
 * churn property test validated with the allocator's own consistency
 * checker, and a differential test against a std::set reference
 * allocator with the same lowest-address-first rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "base/rng.hh"
#include "mem/buddy_allocator.hh"

namespace kloc {
namespace {

TEST(Buddy, FreshAllocatorIsEmpty)
{
    BuddyAllocator buddy(FrameCount{1024});
    EXPECT_EQ(buddy.totalFrames(), 1024u);
    EXPECT_EQ(buddy.usedFrames(), 0u);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    EXPECT_EQ(buddy.maxAvailableOrder(), 10);
    buddy.validate();
}

TEST(Buddy, Order0AllocFree)
{
    BuddyAllocator buddy(FrameCount{64});
    const Pfn pfn = buddy.alloc(0);
    ASSERT_NE(pfn, kInvalidPfn);
    EXPECT_EQ(buddy.usedFrames(), 1u);
    buddy.free(pfn, 0);
    EXPECT_EQ(buddy.usedFrames(), 0u);
    buddy.validate();
}

TEST(Buddy, HighOrderAlignment)
{
    BuddyAllocator buddy(FrameCount{4096});
    for (unsigned order = 1; order <= 10; ++order) {
        const Pfn pfn = buddy.alloc(order);
        ASSERT_NE(pfn, kInvalidPfn);
        EXPECT_EQ(pfn & ((1ULL << order) - 1), 0u)
            << "order " << order << " misaligned";
        buddy.free(pfn, order);
    }
    EXPECT_EQ(buddy.freeFrames(), 4096u);
    buddy.validate();
}

TEST(Buddy, CoalescingRestoresMaxOrder)
{
    BuddyAllocator buddy(FrameCount{1024});
    std::vector<Pfn> pfns;
    for (int i = 0; i < 1024; ++i) {
        const Pfn pfn = buddy.alloc(0);
        ASSERT_NE(pfn, kInvalidPfn);
        pfns.push_back(pfn);
    }
    EXPECT_EQ(buddy.maxAvailableOrder(), -1);
    for (const Pfn pfn : pfns)
        buddy.free(pfn, 0);
    EXPECT_EQ(buddy.maxAvailableOrder(), 10);
    buddy.validate();
}

TEST(Buddy, ExhaustionReturnsInvalid)
{
    BuddyAllocator buddy(FrameCount{4});
    EXPECT_NE(buddy.alloc(2), kInvalidPfn);
    EXPECT_EQ(buddy.alloc(0), kInvalidPfn);
    EXPECT_EQ(buddy.alloc(2), kInvalidPfn);
}

TEST(Buddy, AllocationsDoNotOverlap)
{
    BuddyAllocator buddy(FrameCount{512});
    Rng rng(3);
    std::set<Pfn> owned;
    std::vector<std::pair<Pfn, unsigned>> blocks;
    while (true) {
        const auto order = static_cast<unsigned>(rng.nextBounded(4));
        const Pfn pfn = buddy.alloc(order);
        if (pfn == kInvalidPfn)
            break;
        for (Pfn p = pfn; p < pfn + (1ULL << order); ++p) {
            ASSERT_TRUE(owned.insert(p).second)
                << "frame " << p << " double-allocated";
        }
        blocks.emplace_back(pfn, order);
    }
    for (auto &[pfn, order] : blocks)
        buddy.free(pfn, order);
    buddy.validate();
    EXPECT_EQ(buddy.freeFrames(), 512u);
}

TEST(Buddy, DeterministicLowestAddressFirst)
{
    BuddyAllocator a(FrameCount{256}), b(FrameCount{256});
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.alloc(0), b.alloc(0));
}

TEST(Buddy, DoubleFreeAfterCoalesceDies)
{
    BuddyAllocator buddy(FrameCount{1024});
    ASSERT_EQ(buddy.alloc(0), Pfn{0});
    ASSERT_EQ(buddy.alloc(0), Pfn{1});
    buddy.free(Pfn{1}, 0);
    buddy.free(Pfn{0}, 0);  // coalesces back into the order-10 block
    EXPECT_EQ(buddy.maxAvailableOrder(), 10);
    EXPECT_DEATH(buddy.free(Pfn{1}, 0), "double free");
}

TEST(Buddy, QuarantineOfFreeBlockDies)
{
    BuddyAllocator buddy(FrameCount{64});
    const Pfn pfn = buddy.alloc(2);
    buddy.free(pfn, 2);
    EXPECT_DEATH(buddy.quarantine(pfn + 1, 0), "quarantine");
}

TEST(Buddy, NonPowerOfTwoFrameSpace)
{
    // 1000 frames: trailing frames covered by smaller blocks.
    BuddyAllocator buddy(FrameCount{1000});
    buddy.validate();
    std::vector<Pfn> pfns;
    Pfn pfn;
    while ((pfn = buddy.alloc(0)) != kInvalidPfn)
        pfns.push_back(pfn);
    EXPECT_EQ(pfns.size(), 1000u);
    for (const Pfn p : pfns)
        buddy.free(p, 0);
    buddy.validate();
}

class BuddyChurn : public ::testing::TestWithParam<int>
{};

TEST_P(BuddyChurn, RandomAllocFreeKeepsConsistency)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    BuddyAllocator buddy(FrameCount{2048});
    std::vector<std::pair<Pfn, unsigned>> live;
    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.nextBool(0.55)) {
            const auto order = static_cast<unsigned>(rng.nextBounded(6));
            const Pfn pfn = buddy.alloc(order);
            if (pfn != kInvalidPfn)
                live.emplace_back(pfn, order);
        } else {
            const auto idx = rng.nextBounded(live.size());
            buddy.free(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 0)
            buddy.validate();
    }
    uint64_t live_frames = 0;
    for (auto &[pfn, order] : live)
        live_frames += 1ULL << order;
    EXPECT_EQ(buddy.usedFrames(), live_frames);
    for (auto &[pfn, order] : live)
        buddy.free(pfn, order);
    buddy.validate();
    EXPECT_EQ(buddy.usedFrames(), 0u);
    EXPECT_EQ(buddy.maxAvailableOrder(), 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyChurn,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

/**
 * Reference allocator: the std::set free lists BuddyAllocator used
 * before its bitmap free sets, with the same seeding, lowest-first
 * split and coalescing. Quarantined blocks leave the used count and
 * never return.
 */
class SetBuddy
{
  public:
    explicit SetBuddy(uint64_t frames) : _total(frames)
    {
        uint64_t pfn = 0;
        while (pfn < frames) {
            unsigned order = BuddyAllocator::kMaxOrder;
            while (order > 0 && ((pfn & ((1ULL << order) - 1)) != 0 ||
                                 pfn + (1ULL << order) > frames))
                --order;
            _lists[order].insert(pfn);
            pfn += 1ULL << order;
        }
    }

    uint64_t
    alloc(unsigned order)
    {
        unsigned avail = order;
        while (avail <= BuddyAllocator::kMaxOrder && _lists[avail].empty())
            ++avail;
        if (avail > BuddyAllocator::kMaxOrder)
            return kInvalidPfn;
        const uint64_t pfn = *_lists[avail].begin();
        _lists[avail].erase(_lists[avail].begin());
        while (avail > order) {
            --avail;
            _lists[avail].insert(pfn + (1ULL << avail));
        }
        used += 1ULL << order;
        return pfn;
    }

    void
    free(uint64_t pfn, unsigned order)
    {
        used -= 1ULL << order;
        while (order < BuddyAllocator::kMaxOrder) {
            const uint64_t buddy = pfn ^ (1ULL << order);
            if (buddy >= _total || _lists[order].erase(buddy) == 0)
                break;
            pfn = std::min(pfn, buddy);
            ++order;
        }
        _lists[order].insert(pfn);
    }

    void
    quarantine(unsigned order)
    {
        used -= 1ULL << order;
        quarantined += 1ULL << order;
    }

    int
    maxAvailableOrder() const
    {
        for (int order = BuddyAllocator::kMaxOrder; order >= 0; --order) {
            if (!_lists[order].empty())
                return order;
        }
        return -1;
    }

    uint64_t freeFrames() const { return _total - used - quarantined; }

    uint64_t used = 0;
    uint64_t quarantined = 0;

  private:
    uint64_t _total;
    std::set<uint64_t> _lists[BuddyAllocator::kMaxOrder + 1];
};

class BuddyDifferential : public ::testing::TestWithParam<uint64_t>
{};

/**
 * Seeded alloc/free/quarantine churn on the bitmap allocator and the
 * reference: every call must return the reference's pfn, and the
 * counts and maxAvailableOrder() must match after every step. Phases
 * alternate between filling and draining so the live set reaches the
 * top of the frame space, where 300,001 frames exercise every summary
 * level and a trailing partial word.
 */
TEST_P(BuddyDifferential, MatchesSetReference)
{
    const uint64_t frames = GetParam();
    BuddyAllocator buddy{FrameCount{frames}};
    SetBuddy ref(frames);
    Rng rng(frames);
    std::vector<std::pair<Pfn, unsigned>> live;
    uint64_t highest = 0;
    for (int step = 0; step < 30000; ++step) {
        const double alloc_share = (step / 3000) % 2 == 0 ? 0.9 : 0.3;
        const double action = rng.nextDouble();
        if (live.empty() || action < alloc_share) {
            const auto order = static_cast<unsigned>(
                rng.nextBool(0.5) ? rng.nextBounded(3)
                                  : rng.nextBounded(11));
            const Pfn pfn = buddy.alloc(order);
            ASSERT_EQ(pfn, ref.alloc(order))
                << "step " << step << " order " << order;
            if (pfn != kInvalidPfn) {
                live.emplace_back(pfn, order);
                highest = std::max<uint64_t>(highest, pfn);
            }
        } else {
            const auto idx = rng.nextBounded(live.size());
            const auto [pfn, order] = live[idx];
            live[idx] = live.back();
            live.pop_back();
            if (action < alloc_share + 0.01) {
                buddy.quarantine(pfn, order);
                ref.quarantine(order);
            } else {
                buddy.free(pfn, order);
                ref.free(pfn, order);
            }
        }
        ASSERT_EQ(buddy.usedFrames(), ref.used) << "step " << step;
        ASSERT_EQ(buddy.freeFrames(), ref.freeFrames()) << "step " << step;
        ASSERT_EQ(buddy.quarantinedFrames(), ref.quarantined)
            << "step " << step;
        ASSERT_EQ(buddy.maxAvailableOrder(), ref.maxAvailableOrder())
            << "step " << step;
        if (step % 500 == 0)
            buddy.validate();
    }
    // The churn reached the last tenth of the frame space.
    EXPECT_GE(highest * 10, frames * 9);
    for (const auto &[pfn, order] : live) {
        buddy.free(pfn, order);
        ref.free(pfn, order);
    }
    buddy.validate();
    EXPECT_EQ(buddy.usedFrames(), 0u);
    EXPECT_EQ(buddy.maxAvailableOrder(), ref.maxAvailableOrder());
    EXPECT_GT(buddy.quarantinedFrames(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FrameSpaces, BuddyDifferential,
                         ::testing::Values(1000, 4099, 300001));

} // namespace
} // namespace kloc
