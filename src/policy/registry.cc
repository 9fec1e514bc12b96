#include "policy/registry.hh"

#include "base/logging.hh"
#include "policy/jenga.hh"
#include "policy/nomad.hh"

namespace kloc {

namespace {

using Family = PolicyFamily;
using Kind = StrategyKind;
using Mode = AutoNumaPolicy::Mode;

/** The registry. Name lists keep row order. */
constexpr PolicyRow kPolicies[] = {
    // Two-tier: the Table 5 strategies, then Nomad and Jenga.
    {.name = "all_fast", .family = Family::Tiering, .kind = Kind::AllFast},
    {.name = "all_slow", .family = Family::Tiering, .kind = Kind::AllSlow},
    {.name = "naive", .family = Family::Tiering, .kind = Kind::Naive,
     .swept = true},
    {.name = "autonuma", .family = Family::Tiering, .kind = Kind::AutoNuma,
     .swept = true},
    {.name = "nimble", .family = Family::Tiering, .kind = Kind::Nimble},
    {.name = "nimble++", .family = Family::Tiering,
     .kind = Kind::NimblePlusPlus},
    {.name = "klocs_nomigration", .family = Family::Tiering,
     .kind = Kind::KlocNoMigration, .kloc = true},
    {.name = "klocs", .family = Family::Tiering, .kind = Kind::Kloc,
     .kloc = true, .swept = true},
    {.name = "nomad", .family = Family::Nomad, .swept = true},
    {.name = "jenga", .family = Family::Jenga, .swept = true},
    {.name = "kloc_nomad", .family = Family::Nomad, .kloc = true,
     .swept = true},

    // Optane Memory Mode: the Fig. 5a AutoNUMA variants.
    {.name = "static", .family = Family::AutoNuma, .mode = Mode::Static},
    {.name = "autonuma", .family = Family::AutoNuma, .mode = Mode::AutoNuma},
    {.name = "nimble", .family = Family::AutoNuma, .mode = Mode::NimbleApp},
    {.name = "klocs", .family = Family::AutoNuma, .mode = Mode::Kloc,
     .kloc = true},
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
      case Family::Nomad: {
        NomadStrategy::Config config;
        config.composeKloc = row->kloc;
        return std::make_unique<NomadStrategy>(ctx, config);
      }
      case Family::Jenga:
        return std::make_unique<JengaStrategy>(ctx, JengaStrategy::Config{});
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
