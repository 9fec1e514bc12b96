/**
 * @file
 * Unit coverage for the policy dispatch layer: registry construction,
 * the per-platform row lookup and the name round trip of every
 * registered policy name on both platforms, and AutoNumaPolicy edge
 * cases (empty remote tier, the static row never balancing, a
 * single-frame KLOC following the task across sockets, all tiers
 * cold).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/kloc_manager.hh"
#include "fs/objects.hh"
#include "kobj/kernel_heap.hh"
#include "mem/placement.hh"
#include "policy/autonuma.hh"
#include "policy/registry.hh"
#include "policy/strategy.hh"
#include "sim/machine.hh"

namespace kloc {
namespace {

/** Minimal two-tier stack for registry construction tests. */
struct RegistryStack
{
    RegistryStack()
        : machine(2, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 64 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 64 * kPageSize;
        slow = tiers.addTier(spec);
    }

    PolicyContext
    context(bool with_kloc = true)
    {
        return PolicyContext{heap, lru, migrator,
                             with_kloc ? &kloc : nullptr, fast, slow};
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

TEST(PolicyRegistry, BuildsEveryRegisteredName)
{
    RegistryStack s;
    for (const std::string &name : policyNames()) {
        auto policy = makePolicy(name, s.context());
        ASSERT_NE(policy, nullptr) << "registry failed for " << name;
        EXPECT_EQ(policy->name(), name);
    }
    const std::vector<std::string> optane = {"static", "autonuma",
                                             "nimble", "klocs"};
    EXPECT_EQ(optanePolicyNames(), optane);
    for (const std::string &name : optanePolicyNames()) {
        auto policy =
            makePolicy(name, s.context(), PolicyPlatform::Optane);
        ASSERT_NE(policy, nullptr) << "registry failed for " << name;
        EXPECT_EQ(policy->name(), name);
        EXPECT_NE(dynamic_cast<AutoNumaPolicy *>(policy.get()), nullptr);
    }
}

TEST(PolicyRegistry, ConformanceNamesAreRegistered)
{
    RegistryStack s;
    const auto &all = policyNames();
    for (const std::string &name : conformancePolicyNames()) {
        EXPECT_NE(std::find(all.begin(), all.end(), name), all.end())
            << name << " not in policyNames()";
        EXPECT_NE(makePolicy(name, s.context()), nullptr);
    }
}

TEST(PolicyRegistry, UnknownNameReturnsNull)
{
    RegistryStack s;
    EXPECT_EQ(makePolicy("definitely_not_a_policy", s.context()),
              nullptr);
    EXPECT_EQ(makePolicy("", s.context()), nullptr);
}

TEST(PolicyRegistry, RowLookupIsPerPlatform)
{
    for (const char *name : {"autonuma", "nimble", "klocs"}) {
        const PolicyRow *two_tier = policyRow(name, PolicyPlatform::TwoTier);
        const PolicyRow *optane = policyRow(name, PolicyPlatform::Optane);
        ASSERT_NE(two_tier, nullptr) << name;
        ASSERT_NE(optane, nullptr) << name;
        EXPECT_NE(two_tier, optane) << name;
        EXPECT_EQ(two_tier->platform, PolicyPlatform::TwoTier) << name;
        EXPECT_EQ(optane->platform, PolicyPlatform::Optane) << name;
        EXPECT_STREQ(two_tier->name, name);
        EXPECT_STREQ(optane->name, name);
    }
    for (const PolicyPlatform platform :
         {PolicyPlatform::TwoTier, PolicyPlatform::Optane}) {
        EXPECT_EQ(policyRow("definitely_not_a_policy", platform), nullptr);
        EXPECT_EQ(policyRow("", platform), nullptr);
    }
    // Each platform's own names resolve only there.
    EXPECT_EQ(policyRow("static", PolicyPlatform::TwoTier), nullptr);
    EXPECT_EQ(policyRow("all_fast", PolicyPlatform::Optane), nullptr);
}

TEST(PolicyRegistry, KlocPoliciesRequireAManager)
{
    RegistryStack s;
    for (const std::string &name :
         {std::string("klocs"), std::string("klocs_nomigration"),
          std::string("kloc_nomad")}) {
        EXPECT_EQ(makePolicy(name, s.context(/*with_kloc=*/false)),
                  nullptr)
            << name << " must refuse a null KlocManager";
    }
    // Plain Nomad and Jenga don't need one.
    EXPECT_NE(makePolicy("nomad", s.context(false)), nullptr);
    EXPECT_NE(makePolicy("jenga", s.context(false)), nullptr);
}

// ---------------------------------------------------------------------------
// AutoNumaPolicy edge cases (two sockets, one tier each).

/** Two-socket stack: cpus {0,1} on socket 0, {2,3} on socket 1. */
struct NumaStack
{
    /** Builds the Optane row @p policy_name. */
    explicit NumaStack(const char *policy_name)
        : machine(4, 2), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "socket0";
        spec.capacity = 128 * kPageSize;
        spec.readLatency = Tick{100};
        spec.writeLatency = Tick{100};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        spec.socket = 0;
        tier0 = tiers.addTier(spec);
        spec.name = "socket1";
        spec.socket = 1;
        tier1 = tiers.addTier(spec);

        AutoNumaPolicy::Config config;
        config.scanPeriod = 10 * kMillisecond;
        policy = std::make_unique<AutoNumaPolicy>(
            *policyRow(policy_name, PolicyPlatform::Optane),
            PolicyContext{heap, lru, migrator, &kloc, tier0, tier1}, config);
        policy->install();
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<AutoNumaPolicy> policy;
    TierId tier0 = kInvalidTier;
    TierId tier1 = kInvalidTier;
};

TEST(AutoNumaEdge, EmptyRemoteTierTicksWithoutMigrating)
{
    NumaStack s("autonuma");
    s.machine.setCurrentCpu(0);
    s.policy->start();
    // No allocations anywhere: ticks must fire and move nothing.
    // Charge in scan-period chunks so each tick can reschedule.
    for (int i = 0; i < 10; ++i)
        s.machine.charge(10 * kMillisecond);
    EXPECT_GE(s.policy->balanceTicks(), 2u);
    EXPECT_EQ(s.migrator.stats().migratedPages, 0u);
    EXPECT_EQ(s.migrator.stats().attempts, 0u);
    s.policy->stop();
}

TEST(AutoNumaEdge, StaticNeverBalances)
{
    NumaStack s("static");
    s.machine.setCurrentCpu(2);  // socket 1 allocates...
    std::vector<Frame *> pages;
    for (int i = 0; i < 32; ++i) {
        Frame *frame = s.heap.allocAppPage();
        ASSERT_NE(frame, nullptr);
        pages.push_back(frame);
    }
    // ...and the task moves to socket 0 and touches them remotely.
    s.machine.setCurrentCpu(0);
    s.policy->start();
    for (int i = 0; i < 10; ++i) {
        for (Frame *frame : pages)
            s.mem.touch(frame, 4 * kKiB, AccessType::Read);
        s.machine.charge(10 * kMillisecond);
    }
    EXPECT_EQ(s.policy->balanceTicks(), 0u);
    EXPECT_EQ(s.migrator.stats().attempts, 0u);
    for (Frame *frame : pages)
        EXPECT_EQ(frame->tier, s.tier1);
    s.policy->stop();
    for (Frame *frame : pages)
        s.heap.freeAppPage(frame);
}

TEST(AutoNumaEdge, SingleFrameKlocFollowsTheTask)
{
    NumaStack s("klocs");
    s.machine.setCurrentCpu(0);

    Knode *knode = s.kloc.mapKnode(11);
    ASSERT_NE(knode, nullptr);
    s.kloc.markActive(knode);
    auto obj = std::make_unique<KernelObject>(KobjKind::PageCachePage);
    ASSERT_TRUE(s.heap.allocBacking(*obj, true, knode->id));
    s.kloc.addObject(knode, obj.get());
    ASSERT_EQ(obj->frame()->tier, s.tier0) << "born on the local socket";

    // The scheduler moves the task to socket 1; the KLOC's one frame
    // must follow on the next balance tick.
    s.machine.setCurrentCpu(2);
    s.policy->start();
    for (int i = 0; i < 5; ++i)
        s.machine.charge(10 * kMillisecond);
    EXPECT_EQ(obj->frame()->tier, s.tier1);
    s.policy->stop();

    s.kloc.removeObject(obj.get());
    s.heap.freeBacking(*obj);
    s.kloc.unmapKnode(knode);
}

TEST(AutoNumaEdge, AllTiersColdMigratesNothing)
{
    NumaStack s("autonuma");
    s.machine.setCurrentCpu(2);  // socket 1 allocates...
    std::vector<Frame *> pages;
    for (int i = 0; i < 32; ++i) {
        Frame *frame = s.heap.allocAppPage();
        ASSERT_NE(frame, nullptr);
        EXPECT_EQ(frame->tier, s.tier1);
        pages.push_back(frame);
    }

    // ...then the task runs on socket 0 without ever touching them.
    s.machine.setCurrentCpu(0);
    s.policy->start();
    // Let the first ticks drain any allocation-time referenced bits.
    for (int i = 0; i < 5; ++i)
        s.machine.charge(10 * kMillisecond);
    const uint64_t settled = s.migrator.stats().migratedPages;
    for (int i = 0; i < 5; ++i)
        s.machine.charge(10 * kMillisecond);
    EXPECT_EQ(s.migrator.stats().migratedPages, settled)
        << "cold pages kept migrating with no references";
    s.policy->stop();

    for (Frame *frame : pages)
        s.heap.freeAppPage(frame);
}

} // namespace
} // namespace kloc
