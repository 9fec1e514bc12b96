/**
 * @file
 * Randomised invariant test of the KLOC manager: a long random
 * sequence of knode lifecycle operations, object tracking, hotness
 * transitions, daemon passes, and migrations, with global invariants
 * checked throughout:
 *
 *  - object counts in knode trees match a shadow model
 *  - frames' owner back-pointers name the object last tracked
 *  - metadata accounting never underflows
 *  - the running per-CPU list entry count matches a recount
 *  - each knode's residency lists match a recount from its trees,
 *    and a walk batches what a full walk of the trees would
 *  - every frame is freed by the end (no leaks)
 *  - each tier's buddy allocator validates at the end
 *
 * The whole run also executes with tracing on and the trace-level
 * InvariantChecker attached in strict mode, so the cross-subsystem
 * ordering rules hold under random churn too.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "core/kloc_manager.hh"
#include "fs/objects.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"
#include "support/kloc_residency.hh"
#include "support/kloc_walk_oracle.hh"
#include "trace/invariants.hh"

namespace kloc {
namespace {

class KlocFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(KlocFuzz, InvariantsHoldUnderChurn)
{
    Machine machine(8, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    MigrationEngine migrator(machine, tiers, lru);
    KernelHeap heap(mem, tiers);
    KlocManager kloc(heap, migrator);

    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 512 * kPageSize;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId fast = tiers.addTier(spec);
    spec.name = "slow";
    spec.capacity = 2048 * kPageSize;
    const TierId slow = tiers.addTier(spec);

    StaticPlacement placement({fast, slow}, {fast, slow});
    heap.setPolicy(&placement);
    heap.setKlocInterface(true);
    kloc.setEnabled(true);
    kloc.setTierOrder({fast, slow});

    // Trace every event of the run and check cross-subsystem
    // invariants online. Strict: nothing was allocated yet.
    machine.tracer().setEnabled(true);
    InvariantChecker checker(machine.tracer(), /*strict=*/true);

    Rng rng(static_cast<uint64_t>(GetParam()));
    struct Shadow
    {
        Knode *knode;
        std::vector<std::unique_ptr<KernelObject>> objects;
    };
    std::map<uint64_t, Shadow> model;
    uint64_t next_id = 1;

    auto random_entry = [&]() -> Shadow * {
        if (model.empty())
            return nullptr;
        auto it = model.begin();
        std::advance(it, static_cast<long>(
                             rng.nextBounded(model.size())));
        return &it->second;
    };

    // metadataBytes() reads a running per-CPU entry count; it must
    // equal the lists' sizes summed from scratch.
    auto recount_per_cpu = [&] {
        uint64_t entries = 0;
        for (unsigned cpu = 0; cpu < machine.cpuCount(); ++cpu)
            entries += kloc.perCpuList(cpu).size();
        return entries;
    };

    // Steps exit early through `continue`, so each iteration first
    // checks the state the previous step left.
    for (int step = 0; step < 8000; ++step) {
        ASSERT_EQ(kloc.perCpuEntries(), recount_per_cpu())
            << "before step " << step;
        ASSERT_EQ(klocResidencyError(kloc), "") << "before step " << step;
        const double action = rng.nextDouble();
        if (action < 0.12) {
            const uint64_t id = next_id++;
            Knode *knode = kloc.mapKnode(id);
            ASSERT_NE(knode, nullptr);
            model[id] = Shadow{knode, {}};
        } else if (action < 0.42) {
            Shadow *entry = random_entry();
            if (!entry)
                continue;
            const KobjKind kind = rng.nextBool(0.5)
                ? KobjKind::PageCachePage
                : (rng.nextBool(0.5) ? KobjKind::Extent
                                     : KobjKind::JournalRecord);
            auto obj = std::make_unique<KernelObject>(kind);
            if (!heap.allocBacking(*obj, entry->knode->inuse,
                                   entry->knode->id)) {
                continue;
            }
            kloc.addObject(entry->knode, obj.get());
            ASSERT_EQ(obj->knode, entry->knode);
            ASSERT_EQ(obj->frame()->owner, obj.get());
            entry->objects.push_back(std::move(obj));
        } else if (action < 0.6) {
            Shadow *entry = random_entry();
            if (!entry || entry->objects.empty())
                continue;
            const auto idx = rng.nextBounded(entry->objects.size());
            auto obj = std::move(entry->objects[idx]);
            entry->objects[idx] = std::move(entry->objects.back());
            entry->objects.pop_back();
            kloc.removeObject(obj.get());
            heap.freeBacking(*obj);
        } else if (action < 0.72) {
            Shadow *entry = random_entry();
            if (!entry)
                continue;
            machine.setCurrentCpu(
                static_cast<unsigned>(rng.nextBounded(8)));
            if (rng.nextBool(0.6))
                kloc.markActive(entry->knode);
            else
                kloc.markInactive(entry->knode);
        } else if (action < 0.8) {
            machine.charge(
                static_cast<int64_t>(rng.nextBounded(30)) * kMillisecond);
            kloc.runDemotePass();
            kloc.runWatermarkPass();
        } else if (action < 0.88) {
            Shadow *entry = random_entry();
            if (entry) {
                const TierId dst = rng.nextBool(0.5) ? slow : fast;
                ASSERT_EQ(listBatch(kloc, entry->knode, dst),
                          treeWalkBatch(kloc, entry->knode, dst))
                    << "step " << step;
                kloc.migrateKnodeObjects(entry->knode, dst);
            }
        } else if (action < 0.95) {
            // Lookup path + invariant spot checks.
            Shadow *entry = random_entry();
            if (!entry)
                continue;
            ASSERT_EQ(kloc.findKnode(entry->knode->id), entry->knode);
            ASSERT_EQ(entry->knode->objectCount(),
                      entry->objects.size());
        } else {
            // Destroy a whole KLOC.
            Shadow *entry = random_entry();
            if (!entry)
                continue;
            const uint64_t id = entry->knode->id;
            for (auto &obj : entry->objects) {
                kloc.removeObject(obj.get());
                heap.freeBacking(*obj);
            }
            entry->objects.clear();
            kloc.unmapKnode(entry->knode);
            model.erase(id);
        }
        if (step % 1000 == 0) {
            ASSERT_EQ(kloc.knodeCount(), model.size());
            ASSERT_GE(kloc.peakMetadataBytes(), kloc.metadataBytes());
        }
    }

    ASSERT_EQ(kloc.perCpuEntries(), recount_per_cpu());
    ASSERT_EQ(klocResidencyError(kloc), "");

    // Drain: everything must come back.
    for (auto &[id, entry] : model) {
        for (auto &obj : entry.objects) {
            kloc.removeObject(obj.get());
            heap.freeBacking(*obj);
        }
        entry.objects.clear();
        kloc.unmapKnode(entry.knode);
    }
    model.clear();
    EXPECT_EQ(kloc.knodeCount(), 0u);
    EXPECT_EQ(kloc.perCpuEntries(), 0u);
    EXPECT_EQ(recount_per_cpu(), 0u);
    // The only frames left are slab empty-pool retention.
    EXPECT_LE(tiers.liveFrames(), 3 * KmemCache::kEmptyRetention);
    // Each tier's buddy is consistent after the churn, and its pages
    // (pcp-cached blocks count as free) add up to its total.
    for (const TierId id : {fast, slow}) {
        const Tier &tier = tiers.tier(id);
        tier.buddy().validate();
        EXPECT_EQ(tier.usedPages() + tier.freePages() +
                      tier.buddy().quarantinedFrames(),
                  tier.totalPages());
    }

    EXPECT_GT(checker.eventsChecked(), 0u);
    EXPECT_TRUE(checker.clean()) << checker.report();
    machine.tracer().setEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlocFuzz,
                         ::testing::Values(7, 77, 777, 7777));

} // namespace
} // namespace kloc
