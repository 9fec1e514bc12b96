/**
 * @file
 * klocsim — command-line front end to the KLOC simulator.
 *
 *   klocsim list
 *   klocsim run [--workload W] [--strategy S] [--ops N] [--scale K]
 *               [--ratio R] [--fast-gb G] [--huge-pages] [--stats]
 *   klocsim optane [--workload W] [--strategy S] [--ops N] [--scale K]
 *   klocsim characterize [--workload W] [--ops N] [--scale K]
 *
 * --stats appends the full system snapshot to a run's summary.
 *
 * --seed N (run, optane and characterize) seeds the workload's random
 * choices (keys, file picks); the default, 42, is the seed every
 * bench and golden uses, so `--seed 42` changes nothing.
 *
 * --workload and --strategy take registry names; `klocsim list`
 * prints the workloads and both platforms' policies.
 *
 * Numeric flags take plain decimal digits; --scale, --ratio and
 * --fast-gb must be at least 1.
 *
 * All run commands also accept --trace FILE (dump the event trace),
 * --check (enforce cross-subsystem invariants; exit 2 on violation),
 * --fault-spec FILE (deterministic fault injection; see
 * docs/FAULTS.md) and --fault-seed N (override the spec's seed).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "base/parse.hh"
#include "platform/optane.hh"
#include "platform/two_tier.hh"
#include "policy/registry.hh"
#include "trace/invariants.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

namespace {

struct Args
{
    std::string workload = "rocksdb";
    std::string strategy = "klocs";
    uint64_t ops = 60000;
    unsigned scale = 64;
    unsigned ratio = 8;
    uint64_t fastGb = 8;
    bool hugePages = false;
    bool fullStats = false;
    std::string tracePath;
    bool check = false;
    std::string faultSpecPath;
    uint64_t faultSeed = 0;  ///< 0 = keep the spec file's seed
    uint64_t seed = WorkloadConfig{}.seed;  ///< workload RNG seed
};

Args
parseArgs(int argc, char **argv, int first)
{
    constexpr uint64_t kAny = std::numeric_limits<uint64_t>::max();
    constexpr uint64_t kUnsigned = std::numeric_limits<unsigned>::max();
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", flag.c_str());
            return argv[++i];
        };
        auto number = [&](uint64_t min, uint64_t max) {
            return parseNumber("flag " + flag, value(), min, max);
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--strategy")
            args.strategy = value();
        else if (flag == "--ops")
            args.ops = number(0, kAny);
        else if (flag == "--scale")  // a divisor of every tier
            args.scale = static_cast<unsigned>(number(1, kUnsigned));
        else if (flag == "--ratio")  // a divisor of the slow bandwidth
            args.ratio = static_cast<unsigned>(number(1, kUnsigned));
        else if (flag == "--fast-gb")  // a tier capacity, in bytes
            args.fastGb = number(1, kAny / kGiB.value());
        else if (flag == "--huge-pages")
            args.hugePages = true;
        else if (flag == "--stats")
            args.fullStats = true;
        else if (flag == "--trace")
            args.tracePath = value();
        else if (flag == "--check")
            args.check = true;
        else if (flag == "--fault-spec")
            args.faultSpecPath = value();
        else if (flag == "--fault-seed")
            args.faultSeed = number(0, kAny);
        else if (flag == "--seed")
            args.seed = number(0, kAny);
        else
            fatal("unknown flag '%s'", flag.c_str());
    }
    return args;
}

int
cmdList()
{
    std::printf("workloads:\n");
    for (const WorkloadEntry &entry : workloadTable()) {
        std::printf("  %s%s\n", entry.name,
                    entry.paper ? "" : " (extension)");
    }
    std::printf("policies (two-tier):\n");
    for (const auto &name : policyNames())
        std::printf("  %s\n", name.c_str());
    std::printf("policies (optane):\n");
    for (const auto &name : optanePolicyNames())
        std::printf("  %s\n", name.c_str());
    return 0;
}

/**
 * Configure fault injection from --fault-spec/--fault-seed. Called
 * after platform construction so tier offline/online events can be
 * scheduled against real tiers.
 */
void
applyFaults(System &sys, const Args &args)
{
    if (args.faultSpecPath.empty())
        return;
    std::ifstream in(args.faultSpecPath);
    if (!in)
        fatal("cannot read fault spec '%s'", args.faultSpecPath.c_str());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    FaultSpec spec;
    std::string err;
    if (!FaultSpec::parse(text, spec, &err))
        fatal("bad fault spec '%s': %s", args.faultSpecPath.c_str(),
              err.c_str());
    if (args.faultSeed != 0)
        spec.seed = args.faultSeed;
    for (const TierFaultEvent &event : spec.tierEvents) {
        if (event.tier < 0 ||
            static_cast<size_t>(event.tier) >= sys.tiers().tierCount()) {
            fatal("fault spec references tier %d; platform has %zu",
                  event.tier.value(), sys.tiers().tierCount());
        }
    }
    sys.machine().faults().configure(spec);
    sys.migrator().scheduleTierEvents();
}

/** One-line fault/recovery summary when injection is armed. */
void
printFaultStats(System &sys)
{
    const FaultInjector &faults = sys.machine().faults();
    if (!faults.armed())
        return;
    std::printf("  faults          %llu injected",
                (unsigned long long)faults.totalFires());
    for (unsigned s = 0; s < kNumFaultSites; ++s) {
        const auto site = static_cast<FaultSite>(s);
        const auto &st = faults.siteStats(site);
        if (st.fires > 0) {
            std::printf(" %s=%llu/%llu", faultSiteName(site),
                        (unsigned long long)st.fires,
                        (unsigned long long)st.consults);
        }
    }
    std::printf("\n");
    const BlockLayer &blk = sys.fs().blockLayer();
    const Journal &journal = sys.fs().journal();
    const MigrationStats &mig = sys.migrator().stats();
    std::printf("  recovery        bio retries %llu, bio errors %llu, "
                "mig retries %llu, mig abandons %llu\n",
                (unsigned long long)blk.bioRetries(),
                (unsigned long long)blk.bioErrors(),
                (unsigned long long)mig.noSpaceRetries,
                (unsigned long long)mig.failedNoSpace);
    if (journal.crashes() > 0 || journal.commitAborts() > 0) {
        std::printf("  journal         %llu crashes, %llu recovered, "
                    "%llu commit aborts%s\n",
                    (unsigned long long)journal.crashes(),
                    (unsigned long long)journal.recoveredTxs(),
                    (unsigned long long)journal.commitAborts(),
                    journal.crashed() ? " (still crashed)" : "");
    }
    const PoisonStats &poison = sys.migrator().poisonStats();
    if (poison.poisonedFrames > 0) {
        std::printf("  hwpoison        %llu poisoned (%llu storm), "
                    "%llu shadow + %llu reread recovered, "
                    "%llu data loss, %llu pages quarantined\n",
                    (unsigned long long)poison.poisonedFrames,
                    (unsigned long long)poison.stormFrames,
                    (unsigned long long)poison.recoveredShadow,
                    (unsigned long long)poison.recoveredReread,
                    (unsigned long long)poison.dataLoss,
                    (unsigned long long)sys.tiers().quarantinedPages());
        for (size_t t = 0; t < sys.tiers().tierCount(); ++t) {
            const auto id = static_cast<TierId>(t);
            const TierHealth health = sys.tiers().health(id);
            if (health != TierHealth::Healthy) {
                std::printf("  tier %zu          health %s\n", t,
                            tierHealthName(health));
            }
        }
    }
}

/**
 * FNV-1a over every emitted event (seq, tick, type and the four args,
 * 8 little-endian bytes each). The trace file holds only the ring's
 * last events; the digest lets two runs be compared on all of them.
 */
class TraceDigest
{
  public:
    explicit TraceDigest(Tracer &tracer)
        : _tracer(tracer),
          _listener(tracer.addListener(
              [this](const TraceEvent &event) { fold(event); }))
    {}

    TraceDigest(const TraceDigest &) = delete;
    TraceDigest &operator=(const TraceDigest &) = delete;

    ~TraceDigest() { _tracer.removeListener(_listener); }

    uint64_t events() const { return _events; }
    uint64_t hash() const { return _hash; }

  private:
    void
    fold(const TraceEvent &event)
    {
        foldWord(event.seq);
        foldWord(static_cast<uint64_t>(event.tick.value()));
        foldWord(static_cast<uint64_t>(event.type));
        for (uint64_t arg : event.args)
            foldWord(arg);
        ++_events;
    }

    void
    foldWord(uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            _hash ^= (word >> (8 * byte)) & 0xff;
            _hash *= 0x100000001b3ULL;
        }
    }

    Tracer &_tracer;
    int _listener;
    uint64_t _events = 0;
    uint64_t _hash = 0xcbf29ce484222325ULL;
};

/** What a run with --trace or --check observes of the event stream. */
struct TraceSession
{
    std::unique_ptr<TraceDigest> digest;
    std::unique_ptr<InvariantChecker> checker;
};

/**
 * The run commands' shared start, after the platform applied the
 * policy: fault injection, then tracing (the digest, and the
 * invariant checker) per --trace/--check. Called after platform
 * construction, so the checker runs in its adopting mode for frames
 * that predate the attach.
 */
TraceSession
startRun(System &sys, const Args &args)
{
    applyFaults(sys, args);
    TraceSession session;
    if (args.tracePath.empty() && !args.check)
        return session;
    Tracer &tracer = sys.machine().tracer();
    tracer.setEnabled(true);
    session.digest = std::make_unique<TraceDigest>(tracer);
    if (args.check)
        session.checker = std::make_unique<InvariantChecker>(tracer);
    return session;
}

/**
 * Stop tracing, dump the ring to --trace's file, print the digest of
 * every event, and report checker results.
 * @return 0, or 2 when invariants were violated.
 */
int
finishTracing(System &sys, const Args &args, TraceSession session)
{
    Tracer &tracer = sys.machine().tracer();
    if (!tracer.enabled())
        return 0;
    tracer.setEnabled(false);
    if (!args.tracePath.empty()) {
        std::ofstream out(args.tracePath,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot write trace to '%s'", args.tracePath.c_str());
        out << tracer.serialize();
        std::printf("trace: %llu events (%llu dropped) -> %s\n",
                    (unsigned long long)tracer.emitted(),
                    (unsigned long long)tracer.dropped(),
                    args.tracePath.c_str());
    }
    std::printf("event stream: %llu events, fnv1a %016llx\n",
                (unsigned long long)session.digest->events(),
                (unsigned long long)session.digest->hash());
    if (!session.checker)
        return 0;
    std::fputs(session.checker->report().c_str(), stdout);
    return session.checker->clean() ? 0 : 2;
}

/** The --workload driver's config at --scale, --ops and --seed. */
WorkloadConfig
workloadConfig(const Args &args)
{
    WorkloadConfig config;
    config.scale = args.scale;
    config.operations = args.ops;
    config.seed = args.seed;
    return config;
}

void
printCommonStats(System &sys)
{
    const MigrationStats &mig = sys.migrator().stats();
    std::printf("  migrations      %llu pages (%llu demoted / %llu "
                "promoted)\n",
                (unsigned long long)mig.migratedPages,
                (unsigned long long)mig.demotedPages,
                (unsigned long long)mig.promotedPages);
    const uint64_t refs =
        sys.machine().kernelRefs() + sys.machine().userRefs();
    std::printf("  kernel refs     %.1f%% of %llu\n",
                refs ? 100.0 *
                       static_cast<double>(sys.machine().kernelRefs()) /
                       static_cast<double>(refs)
                     : 0.0,
                (unsigned long long)refs);
    if (sys.kloc().enabled()) {
        const KlocStats &ks = sys.kloc().stats();
        std::printf("  kloc            %llu knodes, %llu objects "
                    "tracked, %.1f KiB metadata peak\n",
                    (unsigned long long)ks.knodesCreated,
                    (unsigned long long)ks.objectsTracked,
                    static_cast<double>(sys.kloc().peakMetadataBytes()) /
                        kKiB);
    }
}

int
cmdRun(const Args &args)
{
    TwoTierPlatform::Config config;
    config.scale = args.scale;
    config.fastCapacity = args.fastGb * kGiB;
    config.bandwidthRatio = args.ratio;
    TwoTierPlatform platform(config, args.strategy);
    System &sys = platform.sys();
    TraceSession trace = startRun(sys, args);

    WorkloadConfig wl_config = workloadConfig(args);
    wl_config.hugePages = args.hugePages;
    const MeasuredRun run = runMeasured(sys, args.workload, wl_config);
    const WorkloadResult &result = run.result;

    std::printf("%s under %s: %.0f ops/s (%llu ops, %.1f ms virtual)\n",
                args.workload.c_str(), args.strategy.c_str(),
                result.throughput(),
                (unsigned long long)result.operations,
                static_cast<double>(result.elapsed) / kMillisecond);
    printCommonStats(sys);
    printFaultStats(sys);
    if (args.fullStats)
        std::fputs(sys.snapshot().toString().c_str(), stdout);
    return finishTracing(sys, args, std::move(trace));
}

int
cmdOptane(const Args &args)
{
    OptanePlatform::Config config;
    config.scale = args.scale;
    OptanePlatform platform(config, args.strategy);
    System &sys = platform.sys();
    TraceSession trace = startRun(sys, args);

    const MeasuredRun run =
        runOptaneMeasured(platform, args.workload, workloadConfig(args));

    std::printf("%s on optane (%s): %.0f ops/s\n",
                args.workload.c_str(), args.strategy.c_str(),
                run.result.throughput());
    printCommonStats(sys);
    printFaultStats(sys);
    return finishTracing(sys, args, std::move(trace));
}

int
cmdCharacterize(const Args &args)
{
    TwoTierPlatform::Config config;
    config.scale = args.scale;
    TwoTierPlatform platform(config, "naive");
    System &sys = platform.sys();
    TraceSession trace = startRun(sys, args);
    int trace_rc = 0;
    {
        // The trace ends before teardown; the counters below include it.
        const MeasuredRun run =
            runMeasured(sys, args.workload, workloadConfig(args));
        trace_rc = finishTracing(sys, args, std::move(trace));
    }

    std::printf("%s characterization:\n", args.workload.c_str());
    std::printf("  cumulative pages by class:\n");
    std::printf("    %-12s %llu\n", "app",
                (unsigned long long)sys.heap().cumulativeAppPages());
    for (unsigned c = 1; c < kNumObjClasses; ++c) {
        const auto cls = static_cast<ObjClass>(c);
        std::printf("    %-12s %llu\n", objClassName(cls),
                    (unsigned long long)
                        sys.tiers().cumulativeAllocPages(cls));
    }
    std::printf("  object lifetimes (mean ms):\n");
    for (unsigned k = 0; k < kNumKobjKinds; ++k) {
        const auto kind = static_cast<KobjKind>(k);
        const auto &hist = sys.heap().objLifetimeHist(kind);
        if (hist.dist().count() == 0)
            continue;
        std::printf("    %-16s %10.3f  (n=%llu)\n", kobjKindName(kind),
                    hist.dist().mean() / kMillisecond,
                    (unsigned long long)hist.dist().count());
    }
    const MigrationStats &mig = sys.migrator().stats();
    std::printf("  migration outcomes:\n");
    for (const MigrationStatField &field : kMigrationStatFields) {
        std::printf("    %-22s %llu\n", field.name,
                    (unsigned long long)(mig.*field.member));
    }
    printCommonStats(sys);
    printFaultStats(sys);
    return trace_rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: klocsim <list|run|optane|characterize> "
                     "[flags]\n");
        return 1;
    }
    const std::string command = argv[1];
    if (command == "list")
        return cmdList();
    const Args args = parseArgs(argc, argv, 2);
    if (command == "run")
        return cmdRun(args);
    if (command == "optane")
        return cmdOptane(args);
    if (command == "characterize")
        return cmdCharacterize(args);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 1;
}
