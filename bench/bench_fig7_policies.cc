/**
 * @file
 * Figure 7 (extension): thrash resistance of the policy roster.
 *
 * Runs the adversarial `thrash` workload — a working set that
 * oscillates deterministically around fast-tier capacity — under the
 * six dynamic policies (Naive, AutoNUMA, KLOCs, Nomad, Jenga,
 * KLOC+Nomad) plus the AllSlow floor, and reports speedup vs AllSlow
 * together with the thrash diagnostics: transactional-copy abort
 * counts (Nomad), shadow free demotions (Nomad), and the adapted
 * promotion batch (Jenga).
 *
 * Expectation: eager promotion (Naive/AutoNUMA) pays full migration
 * cost on every wave crest; Nomad recovers most of the demotion cost
 * through clean shadow copies; Jenga throttles promotion when the
 * reuse histogram collapses. Both should beat the eager baselines.
 *
 * The AllSlow floor is deterministic and shared by every speedup,
 * so it runs exactly once (the Fig. 6 dedup pattern).
 *
 * The thrash-aware ordering is a gated claim: the bench records
 * `claim.fig7.nomad_beats_naive` and `claim.fig7.jenga_beats_naive`
 * (1 when that policy's speedup exceeds Naive's) and exits nonzero
 * when either fails, so a baseline refresh cannot flip it silently.
 */

#include <map>

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> &policies = conformancePolicyNames();

    // Slot 0 is the shared AllSlow baseline; slots 1..N the policies.
    const auto outcomes = sweep<RunOutcome>(
        config, 1 + policies.size(), [&](size_t i) {
            const std::string &policy =
                i == 0 ? std::string("all_slow") : policies[i - 1];
            return runTwoTierPolicy("thrash", policy,
                                    twoTierConfig(config),
                                    workloadConfig(config));
        });

    const double slow_tp = outcomes[0].throughput;

    section("Figure 7: thrash-adversarial policy comparison "
            "(speedup vs all_slow)");
    std::printf("%-16s %10s %8s %10s %10s %10s %8s\n", "policy",
                "ops/s", "speedup", "txn_abort", "shadow_free",
                "migrated", "batch");

    JsonReport report("fig7_policies", config.outdir);
    std::map<std::string, double> speedups;
    for (size_t p = 0; p < policies.size(); ++p) {
        const RunOutcome &out = outcomes[1 + p];
        const double speedup =
            slow_tp > 0 ? out.throughput / slow_tp : 1.0;
        speedups[policies[p]] = speedup;
        const MigrationStats &mig = out.migration;
        const uint64_t aborts = mig.txnAbortedWrite +
                                mig.txnAbortedNoSpace +
                                mig.txnAbortedBlocked;
        std::printf("%-16s %10.0f %7.2fx %10llu %10llu %10llu %8llu\n",
                    policies[p].c_str(), out.throughput, speedup,
                    (unsigned long long)aborts,
                    (unsigned long long)mig.shadowFreeDemotions,
                    (unsigned long long)mig.migratedPages,
                    (unsigned long long)out.finalPromoteBatch);

        const std::string prefix = "thrash." + policies[p];
        report.add(prefix + ".ops_per_s", out.throughput, "ops/s",
                   "higher", true);
        report.add(prefix + ".speedup", speedup, "x", "higher", true);
        // Diagnostics: deterministic, but not success metrics.
        report.add(prefix + ".txn_aborts",
                   static_cast<double>(aborts), "count", "lower", false);
        report.add(prefix + ".shadow_free_demotions",
                   static_cast<double>(mig.shadowFreeDemotions), "count",
                   "higher", false);
        if (out.rateAdaptations > 0) {
            report.add(prefix + ".final_promote_batch",
                       static_cast<double>(out.finalPromoteBatch),
                       "pages", "lower", false);
            report.add(prefix + ".rate_adaptations",
                       static_cast<double>(out.rateAdaptations), "count",
                       "higher", false);
        }
    }

    // Claim gates: thrash-aware promotion beats eager promotion.
    bool claims_hold = true;
    for (const char *policy : {"nomad", "jenga"}) {
        const bool holds = speedups.at(policy) > speedups.at("naive");
        std::printf("-> claim: %s beats naive: %s\n", policy,
                    holds ? "holds" : "FAILS");
        report.add(std::string("claim.fig7.") + policy + "_beats_naive",
                   holds ? 1.0 : 0.0, "bool", "higher", true);
        claims_hold = claims_hold && holds;
    }

    report.write();
    return claims_hold ? 0 : 1;
}
