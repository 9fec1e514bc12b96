/**
 * @file
 * readdir's two forms: readdir() returns the names, readdirCount()
 * only how many. Both charge the same dirent loop over the names
 * present once the syscall cost is paid, so they leave the simulation
 * in the same state, and files an event creates or unlinks during
 * the loop do not change the count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "platform/two_tier.hh"
#include "support/lambda_events.hh"

namespace kloc {
namespace {

/** A klocs platform with @p files closed files, daemons running. */
std::unique_ptr<TwoTierPlatform>
makePlatform(int files)
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    auto platform = std::make_unique<TwoTierPlatform>(config, "klocs");
    FileSystem &fs = platform->sys().fs();
    fs.startDaemons();
    for (int i = 0; i < files; ++i)
        fs.close(fs.create("file_" + std::to_string(i)));
    return platform;
}

TEST(Readdir, CountEqualsNamesReturned)
{
    for (int files : {0, 1, 64, 65, 200}) {
        auto platform = makePlatform(files);
        FileSystem &fs = platform->sys().fs();
        EXPECT_EQ(fs.readdirCount(), fs.readdir().size()) << files;
        EXPECT_EQ(fs.readdirCount(), static_cast<size_t>(files));
    }
}

TEST(Readdir, BothFormsLeaveTwinSystemsIdentical)
{
    auto names = makePlatform(300);
    auto count = makePlatform(300);
    Machine &a = names->sys().machine();
    Machine &b = count->sys().machine();
    a.tracer().setEnabled(true);
    b.tracer().setEnabled(true);
    ASSERT_EQ(a.now(), b.now());
    for (int round = 0; round < 5; ++round) {
        EXPECT_EQ(names->sys().fs().readdir().size(),
                  count->sys().fs().readdirCount());
    }
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.kernelRefs(), b.kernelRefs());
    EXPECT_EQ(a.userRefs(), b.userRefs());
    EXPECT_EQ(a.kernelRefTicks(), b.kernelRefTicks());
    EXPECT_EQ(a.userRefTicks(), b.userRefTicks());
    EXPECT_GT(a.tracer().emitted(), 0u);
    EXPECT_EQ(a.tracer().emitted(), b.tracer().emitted());
    EXPECT_EQ(a.tracer().serialize(), b.tracer().serialize());
    const auto &dir_a = names->sys().heap().objLifetimeHist(KobjKind::DirBuffer);
    const auto &dir_b = count->sys().heap().objLifetimeHist(KobjKind::DirBuffer);
    EXPECT_EQ(dir_a.dist().count(), dir_b.dist().count());
}

TEST(Readdir, EventDuringTheDirentLoopLeavesTheCountAtEntry)
{
    for (bool count_only : {false, true}) {
        auto platform = makePlatform(640);
        FileSystem &fs = platform->sys().fs();
        Machine &machine = platform->sys().machine();
        // Due after the syscall charge (at most kSyscallCost), and
        // long before 640 dirents are charged.
        const Tick entry = machine.now();
        Tick ran_at{};
        LambdaEvents later(machine.events());
        later.at(entry + FileSystem::kSyscallCost + Tick{1}, [&] {
            ran_at = machine.now();
            fs.close(fs.create("late"));
            fs.unlink("file_0");
            fs.unlink("file_1");
        });
        const size_t seen =
            count_only ? fs.readdirCount() : fs.readdir().size();
        EXPECT_EQ(seen, 640u) << count_only;
        EXPECT_GT(ran_at, entry) << "the event did not run";
        EXPECT_LT(ran_at, machine.now()) << "it ran after the loop";
        EXPECT_TRUE(fs.exists("late"));
        EXPECT_FALSE(fs.exists("file_0"));
        EXPECT_EQ(fs.readdirCount(), 639u);
    }
}

} // namespace
} // namespace kloc
