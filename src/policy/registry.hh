/**
 * @file
 * Policy registry: one PolicyRow per named policy, on both platforms
 * (registry.cc). A row is its policy's whole vocabulary: name,
 * platform, placement, scan scope, copy width, promotion style,
 * adaptive rate and KLOC composition; TieringStrategy and
 * AutoNumaPolicy are built from a row and read nothing else. The name
 * lists below derive from the rows and a policy's name() is its row's
 * name, so registering a policy is adding one row (docs/POLICIES.md).
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

#include "policy/policy.hh"

namespace kloc {

/** The platform a registered policy runs on. */
enum class PolicyPlatform : uint8_t { TwoTier, Optane };

/** Where a two-tier policy starts allocations of one kind. */
enum class Placement : uint8_t {
    Fast,       ///< the fast tier only
    Slow,       ///< the slow tier only
    FastFirst,  ///< fast until full, then slow
    SlowFirst,  ///< slow until full, then fast
};

/** Which pages a policy's periodic tick migrates. */
enum class ScanScope : uint8_t {
    None,          ///< no periodic tick: placement is final
    App,           ///< application pages
    AppAndKernel,  ///< and kernel pages other than KLOC metadata
};

/** How a two-tier policy commits a promotion. */
enum class Promotion : uint8_t {
    Exclusive,      ///< MigrationEngine::migrate: the source is freed
    Transactional,  ///< promoteTransactional: the source stays a shadow
};

/** Nimble's parallel page-copy width, for rows with parallelCopy. */
constexpr unsigned kParallelCopyWidth = 8;

/** One registered policy. */
struct PolicyRow
{
    const char *name;
    /** TwoTier rows build a TieringStrategy, Optane rows an
     *  AutoNumaPolicy. */
    PolicyPlatform platform;
    /** Composes KLOC: needs a KlocManager, keeps early demux on, and
     *  on two tiers places kernel objects by knode hotness. */
    bool kloc = false;
    /** Swept by the conformance suite (conformancePolicyNames()). */
    bool swept = false;
    /** Copy pages kParallelCopyWidth wide instead of serially. */
    bool parallelCopy = false;
    /** What the periodic tick migrates; None runs no tick. */
    ScanScope scan = ScanScope::None;

    // The remaining facts describe two-tier rows only.
    /** Kernel-object placement of a row that does not compose KLOC. */
    Placement kernel = Placement::FastFirst;
    /** Application-page placement. */
    Placement app = Placement::FastFirst;
    Promotion promotion = Promotion::Exclusive;
    /** Adapt the promotion batch to the reuse of promoted pages
     *  (Jenga) instead of promoting a fixed batch per tick. */
    bool adaptiveRate = false;
    /** Run the KLOC daemon while started. */
    bool klocDaemon = false;
};

/** The row registered under @p name on @p platform, or nullptr. */
const PolicyRow *policyRow(const std::string &name,
                           PolicyPlatform platform);

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
