/**
 * @file
 * The software-managed two-tier memory platform of Table 4: a fast
 * high-bandwidth DRAM tier and a bandwidth-throttled slow DRAM tier,
 * both OS-managed. Capacities and the bandwidth ratio are the Fig. 6
 * sweep knobs.
 *
 * The paper's 8 GB / 30 GB/s fast tier and 40 GB datasets are
 * simulated at a configurable linear scale (default 1:64); all
 * ratios are preserved.
 */

#ifndef KLOC_PLATFORM_TWO_TIER_HH
#define KLOC_PLATFORM_TWO_TIER_HH

#include <memory>
#include <string>

#include "platform/system.hh"

namespace kloc {

/** Two-tier platform builder and policy host. */
class TwoTierPlatform
{
  public:
    struct Config
    {
        /** Linear scale factor vs. the paper's hardware (1:N). */
        unsigned scale = 64;
        /** Paper-scale fast capacity (scaled down by `scale`). */
        Bytes fastCapacity = 8 * kGiB;
        /** Paper-scale slow capacity. */
        Bytes slowCapacity = 72 * kGiB;
        /** Fast-tier bandwidth (Table 4: 30 GB/s). */
        Bytes fastBandwidth = 30ULL * 1000 * kMiB;
        /** Fast:slow bandwidth ratio (Fig. 6 sweeps 8/4/2). */
        unsigned bandwidthRatio = 8;
        Tick dramLatency{80};
        System::Config system;
    };

    /**
     * The platform sized for the policyNames() entry @p policy, with
     * that policy applied. Sizing gives the all_fast bound a fast
     * tier that holds everything (fast + slow capacity); every other
     * policy gets @p config as is.
     */
    TwoTierPlatform(const Config &config, const std::string &policy);

    /** The platform at @p config with no policy applied yet. */
    explicit TwoTierPlatform(const Config &config);

    /** Convenience: default configuration. */
    TwoTierPlatform() : TwoTierPlatform(Config{}) {}

    System &sys() { return *_system; }

    TierId fastTier() const { return _fast; }
    TierId slowTier() const { return _slow; }

    /** Apply the policyNames() entry @p name (see System). */
    Policy &
    applyPolicyByName(const std::string &name)
    {
        return _system->applyPolicyByName(name, PolicyPlatform::TwoTier,
                                          _fast, _slow);
    }

    /** The applied policy, or nullptr before the first apply. */
    Policy *policy() { return _system->policy(); }

    const Config &config() const { return _config; }

  private:
    Config _config;
    std::unique_ptr<System> _system;
    TierId _fast = kInvalidTier;
    TierId _slow = kInvalidTier;
};

} // namespace kloc

#endif // KLOC_PLATFORM_TWO_TIER_HH
