/**
 * @file
 * Golden-trace regression tests: two small deterministic scenarios
 * whose serialized traces must be byte-identical across runs and
 * match the committed golden files under tests/trace/golden/.
 *
 * Regenerate the golden files after an intentional tracepoint or
 * scenario change with:
 *
 *   KLOC_UPDATE_GOLDEN=1 ./test_trace --gtest_filter='GoldenTrace.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "fs/block_layer.hh"
#include "fs/device.hh"
#include "fs/journal.hh"
#include "fs/objects.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"

#ifndef KLOC_TRACE_GOLDEN_DIR
#error "KLOC_TRACE_GOLDEN_DIR must point at tests/trace/golden"
#endif

namespace kloc {
namespace {

/** Full simulator stack, tracing enabled from the first allocation. */
struct TraceStack
{
    /** @param kernel_fast_first fast tier leads the kernel placement. */
    explicit TraceStack(bool kernel_fast_first)
        : machine(2, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{300};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 2 * kGiB;
        slow = tiers.addTier(spec);

        const TierPreference kernel_pref =
            kernel_fast_first ? TierPreference{fast, slow}
                              : TierPreference{slow, fast};
        placement = std::make_unique<StaticPlacement>(
            kernel_pref, TierPreference{fast, slow});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fast, slow});

        machine.tracer().setEnabled(true);
        checker = std::make_unique<InvariantChecker>(machine.tracer(),
                                                     /*strict=*/true);
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<StaticPlacement> placement;
    std::unique_ptr<InvariantChecker> checker;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

/**
 * Scenario A: a page-cache object born on the slow tier earns active
 * LRU standing through repeated touches and is promoted to fast
 * memory on the next tracked access.
 */
std::string
runTwoTierPromotion(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/false);

    Knode *knode = s.kloc.mapKnode(1);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    auto obj = std::make_unique<KernelObject>(KobjKind::PageCachePage);
    EXPECT_TRUE(s.heap.allocBacking(*obj, true, knode->id));
    s.kloc.addObject(knode, obj.get());
    Frame *frame = obj->frame();
    EXPECT_EQ(frame->tier, s.slow);

    // Two touches activate the frame; the touch after that finds it
    // active on a slow tier and promotes it.
    s.lru.onAccessed(frame);
    s.lru.onAccessed(frame);
    EXPECT_TRUE(frame->onActiveList);
    s.kloc.maybePromoteOnTouch(frame, knode);
    EXPECT_EQ(frame->tier, s.fast);
    EXPECT_TRUE(frame->onActiveList);  // promotion keeps standing

    s.kloc.removeObject(obj.get());
    s.heap.freeBacking(*obj);
    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario B: journalled metadata commits (records and buffer pages
 * freed inside the commit window, after the journal write's bio), and
 * the now-cold KLOC's data frame is evicted to the slow tier.
 */
std::string
runJournalBackedEviction(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/true);
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);
    Journal journal(s.heap, &s.kloc, block);

    Knode *knode = s.kloc.mapKnode(7);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    // A data frame belonging to the same KLOC.
    auto data = std::make_unique<KernelObject>(KobjKind::PageCachePage);
    EXPECT_TRUE(s.heap.allocBacking(*data, true, knode->id));
    s.kloc.addObject(knode, data.get());
    EXPECT_EQ(data->frame()->tier, s.fast);

    // Log enough metadata to pin two journal buffer pages, then
    // commit in the foreground (fsync style).
    journal.logMetadata(knode, true, 7, 2 * kPageSize);
    EXPECT_GT(journal.liveRecords(), 0u);
    journal.commit(/*foreground=*/true);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(journal.committedTxs(), 1u);

    // The KLOC goes cold; its surviving objects demote.
    s.kloc.markInactive(knode);
    EXPECT_GT(s.kloc.migrateKnodeObjects(knode, s.slow), 0u);
    EXPECT_EQ(data->frame()->tier, s.slow);

    journal.detachInode(7);
    s.kloc.removeObject(data.get());
    s.heap.freeBacking(*data);
    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario C: a foreground write bio hits an injected device error
 * on its first attempt, backs off, and succeeds on the retry — the
 * trace brackets the whole episode (pin, submit, fault, retry,
 * complete, unpin) and the pin balances.
 */
std::string
runDeviceErrorRetry(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/true);
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);

    FaultSpec spec;
    std::string err;
    EXPECT_TRUE(FaultSpec::parse("seed 7\ndevice_write oneshot 1\n",
                                 spec, &err)) << err;
    s.machine.faults().configure(spec);

    Knode *knode = s.kloc.mapKnode(3);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    const IoStatus status = block.submit(knode, true, /*sector=*/4096,
                                         kPageSize, /*write=*/true,
                                         /*foreground=*/true);
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(device.ioErrors(), 1u);
    EXPECT_EQ(block.bioRetries(), 1u);
    EXPECT_EQ(block.bioErrors(), 0u);

    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
    EXPECT_EQ(s.checker->openTransactionalCopies(), 0u);
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(KLOC_TRACE_GOLDEN_DIR) + "/" + name + ".trace";
}

/**
 * Compare @p trace against the committed golden file, or rewrite the
 * file when KLOC_UPDATE_GOLDEN is set in the environment.
 */
void
compareGolden(const std::string &name, const std::string &trace)
{
    const std::string path = goldenPath(name);
    if (std::getenv("KLOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << trace;
        GTEST_LOG_(INFO) << "updated golden trace " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with KLOC_UPDATE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(trace, want.str())
        << "trace diverged from " << path
        << "; if the change is intentional, regenerate with "
           "KLOC_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, TwoTierPromotionDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runTwoTierPromotion(&report1);
    const std::string second = runTwoTierPromotion(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("two_tier_promotion", first);
}

TEST(GoldenTrace, JournalBackedEvictionDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runJournalBackedEviction(&report1);
    const std::string second = runJournalBackedEviction(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("journal_backed_eviction", first);
}

TEST(GoldenTrace, DeviceErrorRetryDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runDeviceErrorRetry(&report1);
    const std::string second = runDeviceErrorRetry(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("device_error_retry", first);
}

} // namespace
} // namespace kloc
