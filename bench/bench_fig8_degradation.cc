/**
 * @file
 * Figure 8 (extension): graceful degradation under memory errors.
 *
 * Runs the rocksdb workload under the KLOCs and Nomad policies while
 * an escalating hwpoison load fires — per-access/scan/copy poison
 * probabilities plus scheduled poison_storm bursts on the fast tier —
 * and reports throughput at each error level together with the
 * containment counters: frames poisoned, recoveries (shadow +
 * reread), data losses, and pages quarantined.
 *
 * Expectation: throughput declines *monotonically* with the error
 * rate (each poisoned frame permanently quarantines capacity and the
 * recovery ladder charges copy/reread time) but never collapses —
 * containment converts uncorrectable errors into capacity loss, not
 * failure. Nomad's shadows additionally convert a share of the
 * poisonings into free recoveries; the `recovered` column shows it.
 *
 * Error levels are deterministic: probabilities and storm sizes scale
 * linearly with the level, all under the fixed fault seed, so the
 * sweep is reproducible and pool-order independent.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

/** One cell: policy × error level, shared-nothing. */
struct DegradationOutcome
{
    RunOutcome run;
    PoisonStats poison;
    uint64_t quarantined = 0;
    int fastHealth = 0;
    int slowHealth = 0;
};

std::string
faultSpecFor(unsigned level)
{
    if (level == 0)
        return {};
    const auto scaled = [level](double base) {
        return std::to_string(base * level);
    };
    return "seed 7\n"
           "frame_poison_access prob " + scaled(1e-5) + "\n"
           "frame_poison_scan prob " + scaled(2e-5) + "\n"
           "frame_poison_copy prob " + scaled(5e-5) + "\n"
           "poison_storm at 5000000 tier 0 frames " +
           std::to_string(4 * level) + " repeat 2 every 20000000\n";
}

DegradationOutcome
runCell(const std::string &policy, unsigned level,
        TwoTierPlatform::Config platform_config,
        WorkloadConfig workload_config)
{
    TwoTierPlatform platform(platform_config, policy);
    System &sys = platform.sys();

    const std::string spec_text = faultSpecFor(level);
    if (!spec_text.empty()) {
        FaultSpec spec;
        std::string err;
        if (!FaultSpec::parse(spec_text, spec, &err)) {
            std::fprintf(stderr, "bad fault spec: %s\n", err.c_str());
            std::abort();
        }
        sys.machine().faults().configure(spec);
        sys.migrator().scheduleTierEvents();
    }

    const MeasuredRun run = runMeasured(sys, "rocksdb", workload_config);

    DegradationOutcome out;
    out.run.throughput = run.result.throughput();
    out.run.result = run.result;
    out.run.migration = sys.migrator().stats();
    out.poison = sys.migrator().poisonStats();
    out.quarantined = sys.tiers().quarantinedPages();
    out.fastHealth =
        static_cast<int>(sys.tiers().health(platform.fastTier()));
    out.slowHealth =
        static_cast<int>(sys.tiers().health(platform.slowTier()));
    return out;
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> policies = {"klocs", "nomad"};
    const std::vector<unsigned> levels = {0, 1, 2, 4, 8};

    const auto outcomes = sweep<DegradationOutcome>(
        config, policies.size() * levels.size(), [&](size_t i) {
            const std::string &policy = policies[i / levels.size()];
            const unsigned level = levels[i % levels.size()];
            return runCell(policy, level, twoTierConfig(config),
                           workloadConfig(config));
        });

    section("Figure 8: throughput under escalating memory errors");
    std::printf("%-8s %6s %10s %8s %9s %10s %9s %11s\n", "policy",
                "level", "ops/s", "vs_clean", "poisoned", "recovered",
                "data_loss", "quarantined");

    JsonReport report("fig8_degradation", config.outdir);
    for (size_t p = 0; p < policies.size(); ++p) {
        const double clean =
            outcomes[p * levels.size()].run.throughput;
        for (size_t l = 0; l < levels.size(); ++l) {
            const DegradationOutcome &out = outcomes[p * levels.size() + l];
            const double ratio =
                clean > 0 ? out.run.throughput / clean : 1.0;
            const uint64_t recovered = out.poison.recoveredShadow +
                                       out.poison.recoveredReread;
            std::printf("%-8s %6u %10.0f %7.3fx %9llu %10llu %9llu "
                        "%11llu\n",
                        policies[p].c_str(), levels[l],
                        out.run.throughput, ratio,
                        (unsigned long long)out.poison.poisonedFrames,
                        (unsigned long long)recovered,
                        (unsigned long long)out.poison.dataLoss,
                        (unsigned long long)out.quarantined);

            const std::string prefix = "degradation." + policies[p] +
                                       ".l" + std::to_string(levels[l]);
            report.add(prefix + ".ops_per_s", out.run.throughput,
                       "ops/s", "higher", true);
            report.add(prefix + ".vs_clean", ratio, "x", "higher",
                       false);
            report.add(prefix + ".poisoned_frames",
                       static_cast<double>(out.poison.poisonedFrames),
                       "count", "lower", false);
            report.add(prefix + ".recovered",
                       static_cast<double>(recovered), "count",
                       "higher", false);
            report.add(prefix + ".data_loss",
                       static_cast<double>(out.poison.dataLoss),
                       "count", "lower", false);
            report.add(prefix + ".quarantined_pages",
                       static_cast<double>(out.quarantined), "pages",
                       "lower", false);
        }

        // Degradation shape: each level may cost throughput but must
        // not collapse (no step below half of the previous level).
        bool graceful = true;
        for (size_t l = 1; l < levels.size(); ++l) {
            const double prev =
                outcomes[p * levels.size() + l - 1].run.throughput;
            const double cur =
                outcomes[p * levels.size() + l].run.throughput;
            if (prev > 0 && cur < 0.5 * prev)
                graceful = false;
        }
        std::printf("%-8s degradation is %s\n", policies[p].c_str(),
                    graceful ? "graceful (no >2x step)" : "COLLAPSING");
        report.add("degradation." + policies[p] + ".graceful",
                   graceful ? 1.0 : 0.0, "bool", "higher", true);
    }
    report.write();
    return 0;
}
