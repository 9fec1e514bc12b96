/**
 * @file
 * Policy registry: one PolicyRow per named policy, on both platforms
 * (registry.cc). A two-tier row is also its policy's behaviour:
 * placement, scan scope, copy width, promotion style, adaptive rate
 * and KLOC daemon, which TieringStrategy reads. The name lists below
 * derive from the rows and a policy's name() is its row's name, so
 * registering a two-tier policy is adding one row (docs/POLICIES.md).
 * The platforms share names ("autonuma", "nimble", "klocs"), so a
 * lookup names the platform. The registry is platform-free: a raw
 * test stack can build policies.
 */

#ifndef KLOC_POLICY_REGISTRY_HH
#define KLOC_POLICY_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "policy/autonuma.hh"
#include "policy/policy.hh"
#include "policy/strategy.hh"

namespace kloc {

/** The platform a registered policy runs on. */
enum class PolicyPlatform : uint8_t { TwoTier, Optane };

/** How a registry row builds its policy. */
enum class PolicyFamily : uint8_t { Tiering, AutoNuma };

/** Nimble's parallel page-copy width, for rows with parallelCopy. */
constexpr unsigned kParallelCopyWidth = 8;

/** One registered policy. */
struct PolicyRow
{
    const char *name;
    PolicyFamily family;
    /** PolicyFamily::Tiering: the strategy kind. */
    StrategyKind kind = StrategyKind::Naive;
    /** PolicyFamily::AutoNuma: the Fig. 5a variant. */
    AutoNumaPolicy::Mode mode = AutoNumaPolicy::Mode::Static;
    /** Composes KLOC: needs a KlocManager, keeps early demux on, and
     *  on two tiers places kernel objects by knode hotness. */
    bool kloc = false;
    /** Swept by the conformance suite (conformancePolicyNames()). */
    bool swept = false;
    /** Copy pages kParallelCopyWidth wide instead of serially. */
    bool parallelCopy = false;

    // The remaining facts describe PolicyFamily::Tiering rows only.
    /** Kernel-object placement of a row that does not compose KLOC. */
    Placement kernel = Placement::FastFirst;
    /** Application-page placement. */
    Placement app = Placement::FastFirst;
    ScanScope scan = ScanScope::None;
    Promotion promotion = Promotion::Exclusive;
    /** Adapt the promotion batch to the reuse of promoted pages
     *  (Jenga) instead of promoting a fixed batch per tick. */
    bool adaptiveRate = false;
    /** Run the KLOC daemon while started. */
    bool klocDaemon = false;

    bool optane() const { return family == PolicyFamily::AutoNuma; }
};

/** The row that builds TieringStrategy @p kind. */
const PolicyRow &policyRow(StrategyKind kind);

/** The row that builds AutoNumaPolicy @p mode. */
const PolicyRow &policyRow(AutoNumaPolicy::Mode mode);

/**
 * Build the policy registered under @p name on @p platform.
 * @return nullptr for an unknown name, or for a KLOC-composed policy
 *         when @p ctx.kloc is null.
 */
std::unique_ptr<Policy>
makePolicy(const std::string &name, const PolicyContext &ctx,
           PolicyPlatform platform = PolicyPlatform::TwoTier);

/** Every registered two-tier policy name. */
const std::vector<std::string> &policyNames();

/** Every registered Optane policy name (Fig. 5a). */
const std::vector<std::string> &optanePolicyNames();

/**
 * The dynamic policies every conformance test runs against (the
 * six-way comparison: Naive/AutoNUMA/KLOC/Nomad/Jenga/KLOC+Nomad).
 */
const std::vector<std::string> &conformancePolicyNames();

} // namespace kloc

#endif // KLOC_POLICY_REGISTRY_HH
