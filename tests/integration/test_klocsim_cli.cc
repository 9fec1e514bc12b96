/**
 * @file
 * klocsim CLI smoke tests: `list` prints the whole registry vocabulary
 * (both platforms' policy names and every workload), both run commands
 * accept a registry name through --strategy, both reject an unknown
 * one with a nonzero exit, --stats exports every MigrationStats
 * counter, malformed or out-of-range numeric flags are usage errors
 * rather than silent misreads or panics, --seed reaches the workload
 * (its default is the seed every run used before it), and a fault
 * spec naming a tier the platform lacks is refused with the tier
 * number in the message.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "policy/registry.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

struct CliResult
{
    int code = -1;
    std::string out;  ///< stdout and stderr, interleaved
};

/** Run `klocsim @p args` and collect its exit code and output. */
CliResult
klocsim(const std::string &args)
{
    const std::string command =
        std::string(KLOCSIM_PATH) + " " + args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 4096> buffer{};
    size_t n = 0;
    while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
        result.out.append(buffer.data(), n);
    const int status = pclose(pipe);
    result.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

bool
listed(const std::string &out, const std::string &name)
{
    return out.find("  " + name + "\n") != std::string::npos ||
           out.find("  " + name + " ") != std::string::npos;
}

TEST(KlocsimCli, ListPrintsEveryPolicyAndWorkload)
{
    const CliResult r = klocsim("list");
    ASSERT_EQ(r.code, 0) << r.out;
    for (const std::string &name : policyNames())
        EXPECT_TRUE(listed(r.out, name)) << name << " missing:\n" << r.out;
    for (const std::string &name : optanePolicyNames())
        EXPECT_TRUE(listed(r.out, name)) << name << " missing:\n" << r.out;
    ASSERT_EQ(workloadTable().size(), 8u);
    for (const WorkloadEntry &entry : workloadTable()) {
        EXPECT_TRUE(listed(r.out, entry.name))
            << entry.name << " missing:\n" << r.out;
    }
}

TEST(KlocsimCli, RunTakesAnyTwoTierRegistryName)
{
    const CliResult r =
        klocsim("run --strategy nomad --ops 200 --scale 256");
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("under nomad:"), std::string::npos) << r.out;
}

TEST(KlocsimCli, StatsExportEveryMigrationCounter)
{
    const CliResult r =
        klocsim("run --strategy nomad --ops 200 --scale 256 --stats");
    ASSERT_EQ(r.code, 0) << r.out;
    for (const char *name :
         {"migration.attempts", "migration.failed_same_tier",
          "migration.failed_poisoned", "migration.txn_begins",
          "migration.txn_commits", "migration.txn_aborted_write",
          "migration.txn_aborted_no_space", "migration.txn_aborted_blocked",
          "migration.shadow_makes", "migration.shadow_free_demotions"}) {
        EXPECT_NE(r.out.find(name), std::string::npos)
            << name << " missing:\n" << r.out;
    }
}

TEST(KlocsimCli, OptaneTakesAnOptaneRegistryName)
{
    const CliResult r =
        klocsim("optane --strategy klocs --ops 200 --scale 256");
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("on optane (klocs):"), std::string::npos)
        << r.out;
}

TEST(KlocsimCli, UnknownStrategyExitsNonzero)
{
    for (const char *command : {"run", "optane"}) {
        const CliResult r = klocsim(std::string(command) +
                                    " --strategy bogus --ops 200 "
                                    "--scale 256");
        EXPECT_NE(r.code, 0) << command << ":\n" << r.out;
        EXPECT_NE(r.out.find("bogus"), std::string::npos) << r.out;
    }
}

/** Run `klocsim run` with @p flags after a small valid size. */
CliResult
klocsimRun(const std::string &flags)
{
    return klocsim("run --ops 200 --scale 256 " + flags);
}

/** A usage error: exit 1 (fatal, not a panic), naming @p flag. */
void
expectUsageError(const CliResult &r, const std::string &flag)
{
    EXPECT_EQ(r.code, 1) << r.out;
    EXPECT_NE(r.out.find("flag " + flag + " "), std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("panic"), std::string::npos) << r.out;
}

TEST(KlocsimCli, NumericFlagWithJunkIsAUsageError)
{
    for (const char *flags : {"--ops abc", "--ops 12x", "--ops ''",
                              "--ops ' 5'", "--ops +5", "--ops 0x10"}) {
        SCOPED_TRACE(flags);
        expectUsageError(klocsimRun(flags), "--ops");
    }
    expectUsageError(klocsimRun("--fault-seed 7x"), "--fault-seed");
    expectUsageError(klocsimRun("--seed abc"), "--seed");
    expectUsageError(klocsimRun("--seed 7x"), "--seed");
}

TEST(KlocsimCli, NegativeNumericFlagIsAUsageError)
{
    for (const char *flag :
         {"--ops", "--scale", "--ratio", "--fast-gb", "--fault-seed",
          "--seed"}) {
        SCOPED_TRACE(flag);
        expectUsageError(klocsimRun(std::string(flag) + " -3"), flag);
    }
}

TEST(KlocsimCli, ZeroDivisorOrCapacityIsAUsageError)
{
    for (const char *flag : {"--scale", "--ratio", "--fast-gb"}) {
        SCOPED_TRACE(flag);
        expectUsageError(klocsimRun(std::string(flag) + " 0"), flag);
    }
}

TEST(KlocsimCli, OutOfRangeNumericFlagIsAUsageError)
{
    expectUsageError(klocsimRun("--scale 4294967296"), "--scale");
    expectUsageError(klocsimRun("--fast-gb 17179869184"), "--fast-gb");
    expectUsageError(klocsimRun("--ops 18446744073709551616"), "--ops");
}

TEST(KlocsimCli, ZeroIsValidWhereNothingDividesByIt)
{
    const CliResult r = klocsimRun("--ops 0 --fault-seed 0");
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("(0 ops,"), std::string::npos) << r.out;
}

/** The line of @p out that starts with @p prefix, or "". */
std::string
lineStartingWith(const std::string &out, const std::string &prefix)
{
    const size_t at = out.find(prefix);
    if (at == std::string::npos)
        return "";
    return out.substr(at, out.find('\n', at) - at);
}

TEST(KlocsimCli, SeedFortyTwoIsTheDefault)
{
    for (const char *command : {"run", "optane", "characterize"}) {
        SCOPED_TRACE(command);
        const std::string base =
            std::string(command) + " --workload rocksdb --ops 300 --scale 256";
        const CliResult plain = klocsim(base);
        const CliResult seeded = klocsim(base + " --seed 42");
        EXPECT_EQ(plain.code, 0) << plain.out;
        EXPECT_EQ(seeded.code, 0) << seeded.out;
        EXPECT_EQ(plain.out, seeded.out);
    }
}

TEST(KlocsimCli, SeedChangesTheWorkload)
{
    const std::string base = "run --workload rocksdb --ops 300 --scale 256";
    const CliResult plain = klocsim(base);
    const CliResult seeded = klocsim(base + " --seed 7");
    ASSERT_EQ(plain.code, 0) << plain.out;
    ASSERT_EQ(seeded.code, 0) << seeded.out;
    const std::string want = lineStartingWith(plain.out, "rocksdb under");
    const std::string got = lineStartingWith(seeded.out, "rocksdb under");
    ASSERT_NE(want, "") << plain.out;
    ASSERT_NE(got, "") << seeded.out;
    EXPECT_NE(got, want);
}

TEST(KlocsimCli, FaultSpecNamingAMissingTierExitsNonzero)
{
    // ctest may run test processes in parallel: one file per process.
    const std::filesystem::path spec =
        std::filesystem::temp_directory_path() /
        ("klocsim_cli_bad_tier_" + std::to_string(::getpid()) + ".spec");
    std::ofstream(spec) << "tier_offline at 5000000 tier 7\n";
    const CliResult r = klocsim("run --ops 200 --scale 256 --fault-spec " +
                                spec.string());
    std::filesystem::remove(spec);
    EXPECT_NE(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("references tier 7; platform has 2"),
              std::string::npos)
        << r.out;
}

} // namespace
} // namespace kloc
