/**
 * @file
 * TierManager tests: preference-order allocation with fallback,
 * residency/cumulative accounting, lifetime histograms, the rehome()
 * gate ladder and source fates as one table (identity stability,
 * damping, shadows, containment), FrameRef generations, LRU list
 * membership, and the shadow side table across recycled frames.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/tier_manager.hh"
#include "sim/machine.hh"
#include "support/shadow_table.hh"

namespace kloc {
namespace {

/** A 64-page fast tier and a 256-page slow tier of equal speed. */
void
addFastSlowTiers(TierManager &tiers, TierId &fast_id, TierId &slow_id)
{
    TierSpec fast;
    fast.name = "fast";
    fast.capacity = 64 * kPageSize;
    fast.readLatency = Tick{80};
    fast.writeLatency = Tick{80};
    fast.readBandwidth = 10 * kGiB;
    fast.writeBandwidth = 10 * kGiB;
    fast_id = tiers.addTier(fast);

    TierSpec slow = fast;
    slow.name = "slow";
    slow.capacity = 256 * kPageSize;
    slow_id = tiers.addTier(slow);
}

class TierManagerTest : public ::testing::Test
{
  protected:
    TierManagerTest() : machine(4, 1), tiers(machine)
    {
        addFastSlowTiers(tiers, fastId, slowId);
    }

    Machine machine;
    TierManager tiers;
    TierId fastId = kInvalidTier;
    TierId slowId = kInvalidTier;
};

TEST_F(TierManagerTest, AllocHonoursPreferenceOrder)
{
    Frame *frame = tiers.alloc(0, ObjClass::App, true, {fastId, slowId});
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->tier, fastId);
    EXPECT_EQ(frame->objClass, ObjClass::App);
    EXPECT_TRUE(frame->relocatable);
    tiers.free(frame);
}

TEST_F(TierManagerTest, FallbackWhenPreferredFull)
{
    std::vector<Frame *> frames;
    for (int i = 0; i < 64; ++i) {
        Frame *frame =
            tiers.alloc(0, ObjClass::PageCache, true, {fastId, slowId});
        ASSERT_NE(frame, nullptr);
        EXPECT_EQ(frame->tier, fastId);
        frames.push_back(frame);
    }
    Frame *spilled =
        tiers.alloc(0, ObjClass::PageCache, true, {fastId, slowId});
    ASSERT_NE(spilled, nullptr);
    EXPECT_EQ(spilled->tier, slowId);
    tiers.free(spilled);
    for (Frame *frame : frames)
        tiers.free(frame);
}

TEST_F(TierManagerTest, ExhaustionReturnsNull)
{
    std::vector<Frame *> frames;
    while (Frame *f = tiers.alloc(0, ObjClass::App, true,
                                  {fastId, slowId})) {
        frames.push_back(f);
    }
    EXPECT_EQ(frames.size(), 64u + 256u);
    EXPECT_EQ(tiers.alloc(0, ObjClass::App, true, {fastId, slowId}),
              nullptr);
    for (Frame *frame : frames)
        tiers.free(frame);
    EXPECT_EQ(tiers.liveFrames(), 0u);
}

TEST_F(TierManagerTest, ResidencyAndCumulativeAccounting)
{
    Frame *a = tiers.alloc(0, ObjClass::Journal, true, {fastId});
    Frame *b = tiers.alloc(2, ObjClass::Journal, true, {fastId});
    EXPECT_EQ(tiers.tier(fastId).residentPages(ObjClass::Journal), 5u);
    EXPECT_EQ(tiers.tier(fastId).cumulativeAllocPages(ObjClass::Journal),
              5u);
    EXPECT_EQ(tiers.cumulativeAllocPages(ObjClass::Journal), 5u);
    tiers.free(a);
    EXPECT_EQ(tiers.tier(fastId).residentPages(ObjClass::Journal), 4u);
    // Cumulative never decreases.
    EXPECT_EQ(tiers.cumulativeAllocPages(ObjClass::Journal), 5u);
    tiers.free(b);
}

TEST_F(TierManagerTest, LifetimeHistogramSampled)
{
    Frame *frame = tiers.alloc(0, ObjClass::FsSlab, true, {fastId});
    machine.charge(Tick{1000});
    tiers.free(frame);
    const Histogram &hist = tiers.lifetimeHist(ObjClass::FsSlab);
    EXPECT_EQ(hist.dist().count(), 1u);
    EXPECT_DOUBLE_EQ(hist.dist().mean(), 1000.0);
}

TEST_F(TierManagerTest, MigratePreservesFrameIdentity)
{
    Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {fastId});
    Frame *before = frame;
    ASSERT_EQ(tiers.rehome(frame, slowId, Landing::Fresh, SourceFate::Free),
              MigrateResult::Ok);
    EXPECT_EQ(frame, before);
    EXPECT_EQ(frame->tier, slowId);
    EXPECT_EQ(frame->migrateCount, 1);
    EXPECT_EQ(tiers.tier(fastId).residentPages(ObjClass::PageCache), 0u);
    EXPECT_EQ(tiers.tier(slowId).residentPages(ObjClass::PageCache), 1u);
    // Migration arrivals do not count as new allocations.
    EXPECT_EQ(tiers.tier(slowId).cumulativeAllocPages(ObjClass::PageCache),
              0u);
    tiers.free(frame);
}

TEST_F(TierManagerTest, MigrateRefusals)
{
    Frame *fixed = tiers.alloc(0, ObjClass::FsSlab, false, {fastId});
    EXPECT_EQ(tiers.rehome(fixed, slowId, Landing::Fresh, SourceFate::Free),
              MigrateResult::NotRelocatable)
        << "non-relocatable moved";

    Frame *pinned = tiers.alloc(0, ObjClass::App, true, {fastId});
    pinned->pinCount = 1;
    EXPECT_EQ(tiers.rehome(pinned, slowId, Landing::Fresh, SourceFate::Free),
              MigrateResult::Pinned)
        << "pinned frame moved";
    pinned->pinCount = 0;

    Frame *same = tiers.alloc(0, ObjClass::App, true, {fastId});
    EXPECT_EQ(tiers.rehome(same, fastId, Landing::Fresh, SourceFate::Free),
              MigrateResult::SameTier)
        << "same-tier move";

    tiers.free(fixed);
    tiers.free(pinned);
    tiers.free(same);
}

// Frame and destination state a rehome() row sets up.
constexpr unsigned kFixed = 1u << 0;       ///< not relocatable
constexpr unsigned kPinned = 1u << 1;
constexpr unsigned kPoisoned = 1u << 2;    ///< poisoned in place
constexpr unsigned kDstOffline = 1u << 3;
constexpr unsigned kDstFull = 1u << 4;

/** One rehome() call: the frame's state, the move, the verdict. */
struct RehomeCase
{
    const char *name;
    Landing landing;
    SourceFate source;
    char from;  ///< 'f' or 's': where the frame starts
    char to;    ///< 'f' or 's': the destination
    MigrateResult want;
    unsigned state = 0;  ///< k* flags above
    uint8_t migrateCount = 0;
};

constexpr uint8_t kRetain = TierManager::kRetainThreshold;
constexpr Landing kFresh = Landing::Fresh;
constexpr Landing kIntoShadow = Landing::Shadow;
constexpr SourceFate kFree = SourceFate::Free;
constexpr SourceFate kKeep = SourceFate::KeepShadow;
constexpr SourceFate kContain = SourceFate::Quarantine;
using R = MigrateResult;

// Every gate of the ladder under each landing/source pairing. A
// shadow landing has no same-tier row: its shadow must sit on the
// destination, so the frame cannot.
const RehomeCase kRehomeCases[] = {
    {"fresh_moves", kFresh, kFree, 'f', 's', R::Ok},
    {"fresh_not_relocatable", kFresh, kFree, 'f', 's', R::NotRelocatable,
     kFixed},
    {"fresh_pinned", kFresh, kFree, 'f', 's', R::Pinned, kPinned},
    {"fresh_same_tier", kFresh, kFree, 'f', 'f', R::SameTier},
    {"fresh_damped_demotion", kFresh, kFree, 'f', 's', R::Damped, 0,
     kRetain},
    {"fresh_damped_count_still_promotes", kFresh, kFree, 's', 'f', R::Ok,
     0, kRetain},
    {"fresh_counter_cap", kFresh, kFree, 's', 'f', R::Damped, 0, 0xFF},
    {"fresh_offline", kFresh, kFree, 'f', 's', R::Offline, kDstOffline},
    {"fresh_poisoned_in_place", kFresh, kFree, 'f', 's', R::Poisoned,
     kPoisoned},
    {"fresh_no_space", kFresh, kFree, 'f', 's', R::NoSpace, kDstFull},

    {"keep_source_moves", kFresh, kKeep, 's', 'f', R::Ok},
    {"keep_source_not_relocatable", kFresh, kKeep, 's', 'f',
     R::NotRelocatable, kFixed},
    {"keep_source_pinned", kFresh, kKeep, 's', 'f', R::Pinned, kPinned},
    {"keep_source_same_tier", kFresh, kKeep, 's', 's', R::SameTier},
    {"keep_source_damped", kFresh, kKeep, 'f', 's', R::Damped, 0, kRetain},
    {"keep_source_offline", kFresh, kKeep, 's', 'f', R::Offline,
     kDstOffline},
    {"keep_source_poisoned", kFresh, kKeep, 's', 'f', R::Poisoned,
     kPoisoned},
    {"keep_source_no_space", kFresh, kKeep, 's', 'f', R::NoSpace, kDstFull},

    {"into_shadow_moves", kIntoShadow, kFree, 'f', 's', R::Ok},
    {"into_shadow_not_relocatable", kIntoShadow, kFree, 'f', 's',
     R::NotRelocatable, kFixed},
    {"into_shadow_pinned", kIntoShadow, kFree, 'f', 's', R::Pinned,
     kPinned},
    {"into_shadow_damped", kIntoShadow, kFree, 'f', 's', R::Damped, 0,
     kRetain},
    {"into_shadow_offline", kIntoShadow, kFree, 'f', 's', R::Offline,
     kDstOffline},
    {"into_shadow_poisoned", kIntoShadow, kFree, 'f', 's', R::Poisoned,
     kPoisoned},
    // A full destination cannot stop a shadow landing: no allocation.
    {"into_shadow_ignores_full_destination", kIntoShadow, kFree, 'f', 's',
     R::Ok, kDstFull},

    // Containment skips damping and quarantines the poisoned source.
    {"contain_fresh_skips_damping", kFresh, kContain, 'f', 's', R::Ok,
     kPoisoned, kRetain},
    {"contain_fresh_pinned", kFresh, kContain, 'f', 's', R::Pinned,
     kPoisoned | kPinned},
    {"contain_fresh_offline", kFresh, kContain, 'f', 's', R::Offline,
     kPoisoned | kDstOffline},
    {"contain_fresh_no_space", kFresh, kContain, 'f', 's', R::NoSpace,
     kPoisoned | kDstFull},
    {"contain_into_shadow_skips_damping", kIntoShadow, kContain, 'f', 's',
     R::Ok, kPoisoned, kRetain},
    {"contain_into_shadow_not_relocatable", kIntoShadow, kContain, 'f',
     's', R::NotRelocatable, kPoisoned | kFixed},
};

TEST(TierManagerRehome, GateLadderAndSourceFates)
{
    for (const RehomeCase &row : kRehomeCases) {
        SCOPED_TRACE(row.name);
        Machine machine(4, 1);
        TierManager tiers(machine);
        TierId fast = kInvalidTier;
        TierId slow = kInvalidTier;
        addFastSlowTiers(tiers, fast, slow);
        const TierId from = row.from == 'f' ? fast : slow;
        const TierId to = row.to == 'f' ? fast : slow;
        const bool relocatable = (row.state & kFixed) == 0;
        const bool poisoned = (row.state & kPoisoned) != 0;

        Frame *frame = nullptr;
        if (row.landing == Landing::Shadow) {
            // Promote with the source kept, so the frame's shadow
            // waits on the destination.
            frame = tiers.alloc(0, ObjClass::App, true, {to});
            ASSERT_NE(frame, nullptr);
            ASSERT_EQ(tiers.rehome(frame, from, Landing::Fresh,
                                   SourceFate::KeepShadow),
                      MigrateResult::Ok);
            frame->relocatable = relocatable;
        } else {
            frame = tiers.alloc(0, ObjClass::App, relocatable, {from});
            ASSERT_NE(frame, nullptr);
        }
        ASSERT_EQ(frame->tier, from);
        frame->pinCount = (row.state & kPinned) != 0 ? 1 : 0;
        frame->poisoned = poisoned;
        frame->migrateCount = row.migrateCount;
        std::vector<Frame *> filler;
        while ((row.state & kDstFull) != 0) {
            Frame *f = tiers.alloc(0, ObjClass::App, true, {to});
            if (f == nullptr)
                break;
            filler.push_back(f);
        }
        if ((row.state & kDstOffline) != 0)
            tiers.setTierOnline(to, false);
        const bool had_shadow = frame->hasShadow();
        const Pfn from_pfn = frame->pfn;
        const uint64_t to_allocs =
            tiers.tier(to).cumulativeAllocPages(ObjClass::App);
        const uint64_t to_resident =
            tiers.tier(to).residentPages(ObjClass::App);

        EXPECT_EQ(tiers.rehome(frame, to, row.landing, row.source),
                  row.want)
            << migrateResultName(row.want);

        if (row.want == MigrateResult::Ok) {
            EXPECT_EQ(frame->tier, to);
            EXPECT_EQ(frame->migrateCount, row.migrateCount + 1);
            EXPECT_EQ(tiers.tier(to).residentPages(ObjClass::App),
                      to_resident + 1);
            EXPECT_EQ(tiers.tier(from).residentPages(ObjClass::App), 0u);
            // Migration arrivals do not count as new allocations.
            EXPECT_EQ(tiers.tier(to).cumulativeAllocPages(ObjClass::App),
                      to_allocs);
            EXPECT_FALSE(frame->poisoned);
            EXPECT_EQ(tiers.quarantinedPages(),
                      row.source == SourceFate::Quarantine ? 1u : 0u);
            if (row.source == SourceFate::KeepShadow) {
                ASSERT_NE(tiers.shadowOf(frame), nullptr);
                EXPECT_EQ(tiers.shadowOf(frame)->tier, from);
                EXPECT_EQ(tiers.shadowOf(frame)->pfn, from_pfn);
                EXPECT_EQ(tiers.shadowPages(), 1u);
            } else {
                EXPECT_FALSE(frame->hasShadow());
                EXPECT_EQ(tiers.shadowPages(), 0u);
            }
        } else {
            EXPECT_EQ(frame->tier, from);
            EXPECT_EQ(frame->pfn, from_pfn);
            EXPECT_EQ(frame->migrateCount, row.migrateCount);
            EXPECT_EQ(frame->poisoned, poisoned);
            EXPECT_EQ(frame->hasShadow(), had_shadow);
            EXPECT_EQ(tiers.quarantinedPages(), 0u);
        }

        tiers.setTierOnline(to, true);
        frame->pinCount = 0;
        for (Frame *f : filler)
            tiers.free(f);
        tiers.free(frame);
        EXPECT_EQ(tiers.liveFrames(), 0u);
        EXPECT_EQ(tiers.shadowPages(), 0u);
    }
}

TEST_F(TierManagerTest, PingPongDampingRetainsInFast)
{
    Frame *frame = tiers.alloc(0, ObjClass::PageCache, true, {fastId});
    auto move = [&](TierId dst) {
        return tiers.rehome(frame, dst, Landing::Fresh, SourceFate::Free);
    };
    // Bounce until the retain threshold trips.
    for (int i = 0; i < TierManager::kRetainThreshold / 2; ++i) {
        ASSERT_EQ(move(slowId), MigrateResult::Ok);
        ASSERT_EQ(move(fastId), MigrateResult::Ok);
    }
    EXPECT_GE(frame->migrateCount, TierManager::kRetainThreshold);
    // Demotion now refused; promotion would still be allowed.
    EXPECT_EQ(move(slowId), MigrateResult::Damped);
    EXPECT_EQ(frame->tier, fastId);
    tiers.free(frame);
}

TEST_F(TierManagerTest, FrameRefDetectsFreeAndRecycle)
{
    Frame *frame = tiers.alloc(0, ObjClass::App, true, {fastId});
    FrameRef ref(frame);
    EXPECT_TRUE(ref.valid());
    tiers.free(frame);
    EXPECT_FALSE(ref.valid()) << "ref to freed frame still valid";
    // Recycle the slot: the generation must differ.
    Frame *recycled = tiers.alloc(0, ObjClass::App, true, {fastId});
    if (recycled == frame) {
        EXPECT_FALSE(ref.valid()) << "ref to recycled frame still valid";
    }
    tiers.free(recycled);
}

TEST_F(TierManagerTest, FramesStayOnTheirTiersLruLists)
{
    // No LruEngine: list membership is TierManager's own.
    Frame *hot = tiers.alloc(0, ObjClass::App, true, {fastId});
    Frame *cold = tiers.alloc(0, ObjClass::App, true, {fastId});
    ASSERT_NE(hot, nullptr);
    ASSERT_NE(cold, nullptr);
    Tier &fast = tiers.tier(fastId);
    Tier &slow = tiers.tier(slowId);
    EXPECT_EQ(fast.inactiveList().size(), 2u);
    EXPECT_EQ(fast.inactiveList().front(), cold);
    EXPECT_TRUE(fast.activeList().empty());
    EXPECT_FALSE(cold->onActiveList);
    EXPECT_FALSE(cold->referenced);

    // Promote by hand, as a second reference would.
    fast.inactiveList().remove(hot);
    fast.activeList().pushFront(hot);
    hot->onActiveList = true;

    ASSERT_EQ(tiers.rehome(hot, slowId, Landing::Fresh, SourceFate::Free),
              MigrateResult::Ok);
    EXPECT_TRUE(fast.activeList().empty());
    EXPECT_EQ(slow.activeList().size(), 1u);
    EXPECT_EQ(slow.activeList().front(), hot);
    EXPECT_TRUE(slow.inactiveList().empty());

    ASSERT_EQ(tiers.rehome(cold, slowId, Landing::Fresh, SourceFate::Free),
              MigrateResult::Ok);
    EXPECT_TRUE(fast.inactiveList().empty());
    EXPECT_EQ(slow.inactiveList().size(), 1u);
    EXPECT_EQ(slow.inactiveList().front(), cold);

    tiers.free(hot);
    EXPECT_FALSE(hot->lruHook.linked());
    EXPECT_TRUE(slow.activeList().empty());
    tiers.free(cold);
    EXPECT_FALSE(cold->lruHook.linked());
    EXPECT_TRUE(slow.inactiveList().empty());
}

/**
 * Shadow records live exactly as long as their shadows. 10,000 frames
 * on recycled slots each make a shadow, and each shadow ends one of
 * four ways: the frame is freed, the shadow is dropped, the frame
 * lands back in it, or a fresh landing strands it. With up to eight
 * shadows live at once, the side table holds one record per live
 * shadow throughout and ends empty.
 */
TEST_F(TierManagerTest, ShadowRecordsFollowRecycledFrames)
{
    constexpr size_t kLive = 8;
    std::vector<Frame *> live;
    for (int round = 0; round < 10000; ++round) {
        Frame *frame = tiers.alloc(0, ObjClass::App, true, {slowId});
        ASSERT_NE(frame, nullptr);
        ASSERT_EQ(tiers.rehome(frame, fastId, Landing::Fresh,
                               SourceFate::KeepShadow),
                  MigrateResult::Ok);
        ASSERT_TRUE(frame->hasShadow());
        live.push_back(frame);
        if (live.size() > kLive) {
            Frame *oldest = live.front();
            live.erase(live.begin());
            switch (round % 4) {
              case 0:
                break;
              case 1:
                tiers.dropShadow(oldest, ShadowDropReason::Pressure);
                break;
              case 2:
                ASSERT_EQ(tiers.rehome(oldest, slowId, Landing::Shadow,
                                       SourceFate::Free),
                          MigrateResult::Ok);
                break;
              default:
                ASSERT_EQ(tiers.rehome(oldest, slowId, Landing::Fresh,
                                       SourceFate::Free),
                          MigrateResult::Ok);
                break;
            }
            EXPECT_FALSE(round % 4 != 0 && oldest->hasShadow());
            tiers.free(oldest);
        }
        ASSERT_EQ(tiers.shadowRecords(), live.size());
        if (round % 1000 == 0) {
            ASSERT_TRUE(shadowTableMatchesFrames(tiers)) << round;
        }
    }
    EXPECT_TRUE(shadowTableMatchesFrames(tiers));
    for (Frame *frame : live)
        tiers.free(frame);
    EXPECT_EQ(tiers.shadowRecords(), 0u);
    EXPECT_EQ(tiers.shadowPages(), 0u);
    EXPECT_EQ(tiers.liveFrames(), 0u);
    EXPECT_TRUE(shadowTableMatchesFrames(tiers));
}

} // namespace
} // namespace kloc
