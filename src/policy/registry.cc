#include "policy/registry.hh"

#include "base/logging.hh"

namespace kloc {

namespace {

using Family = PolicyFamily;
using Kind = StrategyKind;
using Mode = AutoNumaPolicy::Mode;
using Place = Placement;
using Scan = ScanScope;

/** The registry. Name lists keep row order. */
constexpr PolicyRow kPolicies[] = {
    // Two-tier: the Table 5 strategies, then Nomad and Jenga.
    {.name = "all_fast", .family = Family::Tiering, .kind = Kind::AllFast,
     .kernel = Place::Fast, .app = Place::Fast},
    {.name = "all_slow", .family = Family::Tiering, .kind = Kind::AllSlow,
     .kernel = Place::Slow, .app = Place::Slow},
    // Greedy: fast until full, no migration.
    {.name = "naive", .family = Family::Tiering, .kind = Kind::Naive,
     .swept = true},
    // Stock NUMA balancing ignores kernel objects (greedy like naive)
    // and migrates app pages with a serial copy.
    {.name = "autonuma", .family = Family::Tiering, .kind = Kind::AutoNuma,
     .swept = true, .scan = Scan::App},
    // Prior art places kernel objects in slow memory on two-tier
    // systems (§3.2).
    {.name = "nimble", .family = Family::Tiering, .kind = Kind::Nimble,
     .parallelCopy = true, .kernel = Place::SlowFirst, .scan = Scan::App},
    {.name = "nimble++", .family = Family::Tiering,
     .kind = Kind::NimblePlusPlus, .parallelCopy = true,
     .scan = Scan::AppAndKernel},
    // Both KLOC modes reuse Nimble's app-page tiering (Table 5).
    {.name = "klocs_nomigration", .family = Family::Tiering,
     .kind = Kind::KlocNoMigration, .kloc = true, .parallelCopy = true,
     .scan = Scan::App},
    {.name = "klocs", .family = Family::Tiering, .kind = Kind::Kloc,
     .kloc = true, .swept = true, .parallelCopy = true, .scan = Scan::App,
     .klocDaemon = true},
    {.name = "nomad", .family = Family::Tiering, .kind = Kind::Nomad,
     .swept = true, .parallelCopy = true, .kernel = Place::SlowFirst,
     .scan = Scan::App, .promotion = Promotion::Transactional},
    {.name = "jenga", .family = Family::Tiering, .kind = Kind::Jenga,
     .swept = true, .parallelCopy = true, .kernel = Place::SlowFirst,
     .scan = Scan::App, .adaptiveRate = true},
    {.name = "kloc_nomad", .family = Family::Tiering, .kind = Kind::KlocNomad,
     .kloc = true, .swept = true, .parallelCopy = true, .scan = Scan::App,
     .promotion = Promotion::Transactional, .klocDaemon = true},

    // Optane Memory Mode: the Fig. 5a AutoNUMA variants.
    {.name = "static", .family = Family::AutoNuma, .mode = Mode::Static},
    {.name = "autonuma", .family = Family::AutoNuma, .mode = Mode::AutoNuma},
    {.name = "nimble", .family = Family::AutoNuma, .mode = Mode::NimbleApp,
     .parallelCopy = true},
    {.name = "klocs", .family = Family::AutoNuma, .mode = Mode::Kloc,
     .kloc = true, .parallelCopy = true},
};

const PolicyRow *
findRow(const std::string &name, PolicyPlatform platform)
{
    for (const PolicyRow &row : kPolicies) {
        if (row.optane() == (platform == PolicyPlatform::Optane) &&
            name == row.name)
            return &row;
    }
    return nullptr;
}

/** Names of the rows matching @p keep, in row order. */
template <typename Pred>
std::vector<std::string>
namesWhere(Pred keep)
{
    std::vector<std::string> names;
    for (const PolicyRow &row : kPolicies) {
        if (keep(row))
            names.emplace_back(row.name);
    }
    return names;
}

} // namespace

Policy::Policy(const PolicyContext &ctx, const PolicyRow &row)
    : _row(row),
      _heap(ctx.heap),
      _lru(ctx.lru),
      _migrator(ctx.migrator),
      _kloc(ctx.kloc),
      _fast(ctx.fast),
      _slow(ctx.slow)
{
    KLOC_ASSERT(!_row.kloc || _kloc != nullptr,
                "policy %s requires a KlocManager", _row.name);
}

const char *
Policy::name() const
{
    return _row.name;
}

bool
Policy::usesKloc() const
{
    return _row.kloc;
}

const PolicyRow &
policyRow(StrategyKind kind)
{
    for (const PolicyRow &row : kPolicies) {
        if (row.family == Family::Tiering && row.kind == kind)
            return row;
    }
    panic("strategy kind %u has no registry row",
          static_cast<unsigned>(kind));
}

const PolicyRow &
policyRow(AutoNumaPolicy::Mode mode)
{
    for (const PolicyRow &row : kPolicies) {
        if (row.family == Family::AutoNuma && row.mode == mode)
            return row;
    }
    panic("AutoNUMA mode %u has no registry row",
          static_cast<unsigned>(mode));
}

std::unique_ptr<Policy>
makePolicy(const std::string &name, const PolicyContext &ctx,
           PolicyPlatform platform)
{
    const PolicyRow *row = findRow(name, platform);
    if (row == nullptr || (row->kloc && ctx.kloc == nullptr))
        return nullptr;
    switch (row->family) {
      case Family::Tiering:
        return std::make_unique<TieringStrategy>(
            row->kind, ctx, TieringStrategy::Config{});
      case Family::AutoNuma:
        return std::make_unique<AutoNumaPolicy>(row->mode, ctx,
                                                AutoNumaPolicy::Config{});
    }
    return nullptr;
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names =
        namesWhere([](const PolicyRow &row) { return !row.optane(); });
    return names;
}

const std::vector<std::string> &
optanePolicyNames()
{
    static const std::vector<std::string> names =
        namesWhere([](const PolicyRow &row) { return row.optane(); });
    return names;
}

const std::vector<std::string> &
conformancePolicyNames()
{
    static const std::vector<std::string> names =
        namesWhere([](const PolicyRow &row) { return row.swept; });
    return names;
}

} // namespace kloc
