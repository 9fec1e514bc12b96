/**
 * @file
 * Workload utility tests: the FdCache (RocksDB-style table cache),
 * arena helpers, the thrash sweep's page walk, and the measured-run
 * protocol.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/thrash.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

std::unique_ptr<TwoTierPlatform>
makePlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    return std::make_unique<TwoTierPlatform>(config, "klocs");
}

TEST(FdCacheTest, OpensOnDemandAndReusesHits)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().close(sys.fs().create("a"));
    sys.fs().close(sys.fs().create("b"));

    FdCache cache(4);
    const int fd_a = cache.get(sys, "a");
    ASSERT_GE(fd_a, 0);
    EXPECT_EQ(cache.get(sys, "a"), fd_a) << "hit must reuse the fd";
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.get(sys, "b"), 0);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.get(sys, "missing"), -1);
    cache.clear(sys);
    EXPECT_EQ(cache.size(), 0u);
    sys.fs().unlink("a");
    sys.fs().unlink("b");
}

TEST(FdCacheTest, EvictsLruAndClosesFiles)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const std::vector<std::string> names = {"f0", "f1", "f2",
                                            "f3", "f4", "f5"};
    for (const std::string &name : names)
        sys.fs().close(sys.fs().create(name));

    FdCache cache(3);
    for (const std::string &name : names)
        cache.get(sys, name);
    EXPECT_EQ(cache.size(), 3u);
    // The evicted files' knodes went inactive again.
    EXPECT_FALSE(sys.fs().knodeOf("f0")->inuse);
    EXPECT_TRUE(sys.fs().knodeOf("f5")->inuse);
    cache.clear(sys);
    for (const std::string &name : names)
        sys.fs().unlink(name);
}

TEST(FdCacheTest, DropClosesBeforeUnlink)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    sys.fs().close(sys.fs().create("victim"));
    FdCache cache(4);
    cache.get(sys, "victim");
    EXPECT_FALSE(sys.fs().unlink("victim")) << "open via cache";
    cache.drop(sys, "victim");
    EXPECT_TRUE(sys.fs().unlink("victim"));
    cache.drop(sys, "victim");  // idempotent on absent names
}

/** A small rocksdb run: enough for the FS daemons to fire. */
WorkloadConfig
smallRocksDb()
{
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 500;
    return config;
}

/** A workload that does nothing but expose the arena helpers. */
class ArenaProbe : public Workload
{
  public:
    using Workload::Workload;
    const char *name() const override { return "arena_probe"; }
    void setup(System &) override {}
    WorkloadResult run(System &) override { return {}; }
    using Workload::growArena;
    using Workload::touchArena;
    using Workload::touchArenaRun;
    const std::vector<Frame *> &arena() const { return _arena; }
};

/**
 * On a fresh platform, grow a @p size-page arena, touch index @p idx
 * and return (lastAccessTick, referenced) of every arena frame.
 */
std::vector<std::pair<Tick, bool>>
marksAfterTouch(uint64_t size, uint64_t idx)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    ArenaProbe probe(WorkloadConfig{});
    probe.growArena(sys, size);
    const std::vector<Frame *> frames = probe.arena();
    EXPECT_EQ(frames.size(), size);
    // Move the clock so the touched frame's tick stands out.
    sys.machine().charge(Tick{1000});
    probe.touchArena(sys, idx, Bytes{64}, AccessType::Read);
    std::vector<std::pair<Tick, bool>> marks;
    for (const Frame *frame : frames)
        marks.emplace_back(frame->lastAccessTick, frame->referenced);
    probe.teardown(sys);
    return marks;
}

TEST(ArenaTest, TouchIndexWrapsModuloArenaSize)
{
    constexpr uint64_t kSize = 5;
    for (uint64_t k = 0; k < kSize; ++k) {
        const auto want = marksAfterTouch(kSize, k);
        EXPECT_NE(want, marksAfterTouch(kSize, (k + 1) % kSize));
        EXPECT_EQ(marksAfterTouch(kSize, kSize + k), want) << "k " << k;
        EXPECT_EQ(marksAfterTouch(kSize, 3 * kSize + k), want) << "k " << k;
    }
}

TEST(ArenaTest, EmptyArenaTouchesNothing)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    ArenaProbe probe(WorkloadConfig{});
    const Tick before = sys.machine().now();
    for (const uint64_t idx : {0, 1, 7})
        probe.touchArena(sys, idx, Bytes{64}, AccessType::Write);
    for (const uint64_t first : {0, 1, 7}) {
        for (const uint64_t n : {0, 1, 512})
            probe.touchArenaRun(sys, first, n, Bytes{64}, AccessType::Write);
    }
    EXPECT_EQ(sys.machine().now(), before);
    EXPECT_EQ(sys.machine().userRefs() + sys.machine().kernelRefs(), 0u);
}

/**
 * touchArenaRun against touchArena slot by slot, on twin platforms:
 * the same clock, RefStats, and access marks on every arena frame,
 * over runs that cover the whole arena several times.
 */
TEST(ArenaTest, RunTouchesAsSlotTouchesDo)
{
    constexpr uint64_t kSize = 96;
    struct Twin
    {
        std::unique_ptr<TwoTierPlatform> platform = makePlatform();
        ArenaProbe probe{WorkloadConfig{}};
    };
    Twin slots;
    Twin runs;
    for (Twin *twin : {&slots, &runs})
        twin->probe.growArena(twin->platform->sys(), kSize);
    System &a = slots.platform->sys();
    System &b = runs.platform->sys();
    for (uint64_t lap = 0; lap < 4; ++lap) {
        for (const auto &[first, n] :
             {std::pair<uint64_t, uint64_t>{0, 40}, {40, 1}, {41, 55},
              {17, 60}, {95, 1}}) {
            const AccessType type =
                (first + lap) % 2 == 0 ? AccessType::Write : AccessType::Read;
            for (uint64_t k = 0; k < n; ++k)
                slots.probe.touchArena(a, first + k, 4 * kKiB, type);
            runs.probe.touchArenaRun(b, first, n, 4 * kKiB, type);
        }
    }
    EXPECT_EQ(a.machine().now(), b.machine().now());
    EXPECT_EQ(a.machine().userRefs(), b.machine().userRefs());
    EXPECT_EQ(a.machine().userRefTicks(), b.machine().userRefTicks());
    EXPECT_EQ(a.machine().kernelRefs(), b.machine().kernelRefs());
    for (uint64_t i = 0; i < kSize; ++i) {
        const Frame &x = *slots.probe.arena()[i];
        const Frame &y = *runs.probe.arena()[i];
        EXPECT_EQ(x.tier, y.tier) << i;
        EXPECT_EQ(x.lastAccessTick, y.lastAccessTick) << i;
        EXPECT_EQ(x.lastWriteTick, y.lastWriteTick) << i;
        EXPECT_EQ(x.dirty, y.dirty) << i;
        EXPECT_EQ(x.referenced, y.referenced) << i;
        EXPECT_EQ(x.onActiveList, y.onActiveList) << i;
    }
    slots.probe.teardown(a);
    runs.probe.teardown(b);
}

/**
 * ThrashWorkload::sweepChunk's runs, expanded page by page, against
 * the per-slot closed form, over a grid that reaches every wrap: a
 * cursor left past a shrunken window, a window straddling the arena
 * end, one-page windows and arenas, a window as large as the arena,
 * and chunks longer than the window. Every run is non-empty and lies
 * inside the arena, as touchArenaRun requires.
 */
TEST(ThrashSweep, MatchesClosedFormAtEveryWrap)
{
    constexpr uint64_t kDiv = ThrashWorkload::kWriteBandDiv;
    uint64_t cases = 0;
    uint64_t straddling = 0;
    for (const uint64_t arena : {1, 2, 7, 64}) {
        for (const uint64_t ws : {1ul, 2ul, 5ul, arena - 1, arena}) {
            if (ws < 1 || ws > arena)
                continue;
            for (const uint64_t base : {0ul, 1ul, arena - ws, arena - 1}) {
                if (base >= arena)
                    continue;
                straddling += base + ws > arena;
                for (const uint64_t cursor :
                     {0ul, 1ul, ws - 1, ws, ws + 3, 3 * ws + 1, 1000ul}) {
                    for (const uint64_t chunk :
                         {0ul, 1ul, ws, ws + 1, 3 * ws + 2}) {
                        std::vector<std::pair<uint64_t, bool>> got;
                        bool runs_fit = true;
                        const uint64_t next = ThrashWorkload::sweepChunk(
                            base, ws, arena, cursor, chunk,
                            [&](uint64_t first, uint64_t len, bool write) {
                                runs_fit = runs_fit && len >= 1 &&
                                           first < arena &&
                                           len <= arena - first;
                                for (uint64_t k = 0; k < len; ++k)
                                    got.emplace_back(first + k, write);
                            });
                        ASSERT_TRUE(runs_fit);
                        std::vector<std::pair<uint64_t, bool>> want;
                        for (uint64_t j = 0; j < chunk; ++j) {
                            const uint64_t pos = (cursor + j) % ws;
                            want.emplace_back((base + pos) % arena,
                                              pos * kDiv < ws);
                        }
                        ASSERT_EQ(got, want)
                            << "arena " << arena << " ws " << ws << " base "
                            << base << " cursor " << cursor << " chunk "
                            << chunk;
                        ASSERT_EQ(next, (cursor + chunk) % ws);
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_GT(straddling, 0u);
    EXPECT_GT(cases, 500u);
}

TEST(RunnerProtocol, QuiesceDrainsDirtyState)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    const MeasuredRun run = runMeasured(sys, "rocksdb", smallRocksDb());
    // After setup+quiesce+run, another quiesce leaves no dirty
    // backlog: a syncAll finds nothing to write.
    sys.fs().syncAll();
    const uint64_t wb = sys.fs().stats().writebackPages;
    sys.fs().syncAll();
    EXPECT_EQ(sys.fs().stats().writebackPages, wb);
}

/** runMeasured starts the FS daemons; a caller need not. */
TEST(RunnerProtocol, StartsTheDaemonsItself)
{
    auto measure = [](bool caller_starts_daemons) {
        auto platform = makePlatform();
        System &sys = platform->sys();
        if (caller_starts_daemons)
            sys.fs().startDaemons();
        const MeasuredRun run =
            runMeasured(sys, "rocksdb", smallRocksDb());
        return std::pair(run.result.elapsed,
                         sys.fs().stats().writebackPages);
    };
    const auto started = measure(true);
    const auto implicit = measure(false);
    EXPECT_EQ(implicit.first, started.first);
    EXPECT_EQ(implicit.second, started.second);
}

/** A held MeasuredRun keeps the dataset; its end tears it down. */
TEST(RunnerProtocol, HeldRunTearsDownWhenItEnds)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    {
        const MeasuredRun run =
            runMeasured(sys, "rocksdb", smallRocksDb());
        EXPECT_GT(sys.fs().liveInodes(), 0u);
    }
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
}

TEST(RunnerProtocol, DiscardedRunTearsDownAtOnce)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    runMeasured(sys, "rocksdb", smallRocksDb());
    EXPECT_EQ(sys.fs().liveInodes(), 0u);
}

/** all_fast's fast tier holds everything; other policies keep it. */
TEST(RunnerProtocol, PlatformIsSizedForItsPolicy)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    const auto fast_capacity = [](TwoTierPlatform &platform) {
        return platform.sys().tiers().tier(platform.fastTier())
            .spec().capacity;
    };
    // Only all_fast, which places everything fast, grows its fast
    // tier to hold all.
    for (const std::string &name : policyNames()) {
        TwoTierPlatform platform(config, name);
        const Bytes expected =
            name == "all_fast"
                ? (config.fastCapacity + config.slowCapacity) / config.scale
                : config.fastCapacity / config.scale;
        EXPECT_EQ(fast_capacity(platform), expected) << name;
        EXPECT_EQ(std::string(platform.policy()->name()), name);
    }
}

TEST(RunnerProtocol, SetCpusRedirectsRotation)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 64;
    config.cpus = {2};
    auto workload = makeWorkload("filebench", config);
    workload->setup(sys);
    workload->run(sys);
    EXPECT_EQ(sys.machine().currentCpu(), 2u);
    workload->setCpus({5});
    workload->run(sys);
    EXPECT_EQ(sys.machine().currentCpu(), 5u);
    workload->teardown(sys);
}

} // namespace
} // namespace kloc
