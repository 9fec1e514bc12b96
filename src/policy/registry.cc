#include "policy/registry.hh"

#include "base/logging.hh"
#include "policy/autonuma.hh"
#include "policy/strategy.hh"

namespace kloc {

namespace {

using Place = Placement;
using Scan = ScanScope;
constexpr PolicyPlatform kTwoTier = PolicyPlatform::TwoTier;
constexpr PolicyPlatform kOptane = PolicyPlatform::Optane;

/** The registry. Name lists keep row order. */
constexpr PolicyRow kPolicies[] = {
    // Two-tier: the Table 5 strategies, then Nomad and Jenga.
    {.name = "all_fast", .platform = kTwoTier, .kernel = Place::Fast,
     .app = Place::Fast},
    {.name = "all_slow", .platform = kTwoTier, .kernel = Place::Slow,
     .app = Place::Slow},
    // Greedy: fast until full, no migration.
    {.name = "naive", .platform = kTwoTier, .swept = true},
    // Stock NUMA balancing ignores kernel objects (greedy like naive)
    // and migrates app pages with a serial copy.
    {.name = "autonuma", .platform = kTwoTier, .swept = true,
     .scan = Scan::App},
    // Prior art places kernel objects in slow memory on two-tier
    // systems (§3.2).
    {.name = "nimble", .platform = kTwoTier, .parallelCopy = true,
     .scan = Scan::App, .kernel = Place::SlowFirst},
    // Nimble's scan extended to kernel pages without KLOCs: slab
    // pages stay non-relocatable and scans outlast kernel-object
    // lifetimes, so hot kernel objects rarely return to fast memory.
    {.name = "nimble++", .platform = kTwoTier, .parallelCopy = true,
     .scan = Scan::AppAndKernel},
    // Both KLOC modes reuse Nimble's app-page tiering (Table 5).
    {.name = "klocs_nomigration", .platform = kTwoTier, .kloc = true,
     .parallelCopy = true, .scan = Scan::App},
    {.name = "klocs", .platform = kTwoTier, .kloc = true, .swept = true,
     .parallelCopy = true, .scan = Scan::App, .klocDaemon = true},
    {.name = "nomad", .platform = kTwoTier, .swept = true,
     .parallelCopy = true, .scan = Scan::App, .kernel = Place::SlowFirst,
     .promotion = Promotion::Transactional},
    {.name = "jenga", .platform = kTwoTier, .swept = true,
     .parallelCopy = true, .scan = Scan::App, .kernel = Place::SlowFirst,
     .adaptiveRate = true},
    {.name = "kloc_nomad", .platform = kTwoTier, .kloc = true,
     .swept = true, .parallelCopy = true, .scan = Scan::App,
     .promotion = Promotion::Transactional, .klocDaemon = true},

    // Optane Memory Mode: the Fig. 5a AutoNUMA variants. Static
    // never balances; the others pull app pages to the task's socket.
    {.name = "static", .platform = kOptane},
    {.name = "autonuma", .platform = kOptane, .scan = Scan::App},
    {.name = "nimble", .platform = kOptane, .parallelCopy = true,
     .scan = Scan::App},
    {.name = "klocs", .platform = kOptane, .kloc = true,
     .parallelCopy = true, .scan = Scan::App},
};

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

const PolicyRow *
policyRow(const std::string &name, PolicyPlatform platform)
{
    for (const PolicyRow &row : kPolicies) {
        if (row.platform == platform && name == row.name)
            return &row;
    }
    return nullptr;
}

std::unique_ptr<Policy>
makePolicy(const std::string &name, const PolicyContext &ctx,
           PolicyPlatform platform)
{
    const PolicyRow *row = policyRow(name, platform);
    if (row == nullptr || (row->kloc && ctx.kloc == nullptr))
        return nullptr;
    switch (row->platform) {
      case PolicyPlatform::TwoTier:
        return std::make_unique<TieringStrategy>(*row, ctx,
                                                 TieringStrategy::Config{});
      case PolicyPlatform::Optane:
        return std::make_unique<AutoNumaPolicy>(*row, ctx,
                                                AutoNumaPolicy::Config{});
    }
    return nullptr;
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names =
        namesWhere([](const PolicyRow &row) {
            return row.platform == kTwoTier;
        });
    return names;
}

const std::vector<std::string> &
optanePolicyNames()
{
    static const std::vector<std::string> names =
        namesWhere([](const PolicyRow &row) {
            return row.platform == kOptane;
        });
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
