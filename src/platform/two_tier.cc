#include "platform/two_tier.hh"

#include "base/logging.hh"
#include "policy/registry.hh"

namespace kloc {

namespace {

/** @p config sized for @p policy: a policy that places everything
 *  fast gets a fast tier that holds all. */
TwoTierPlatform::Config
sizedFor(const TwoTierPlatform::Config &config, const std::string &policy)
{
    TwoTierPlatform::Config sized = config;
    const PolicyRow *row = policyRow(policy, PolicyPlatform::TwoTier);
    if (row != nullptr && row->kernel == Placement::Fast &&
        row->app == Placement::Fast)
        sized.fastCapacity += config.slowCapacity;
    return sized;
}

} // namespace

TwoTierPlatform::TwoTierPlatform(const Config &config) : _config(config)
{
    KLOC_ASSERT(config.scale >= 1, "scale must be >= 1");
    KLOC_ASSERT(config.bandwidthRatio >= 1, "bad bandwidth ratio");

    _system = std::make_unique<System>(config.system);

    TierSpec fast;
    fast.name = "fast-dram";
    fast.capacity = config.fastCapacity / config.scale;
    fast.readLatency = config.dramLatency;
    fast.writeLatency = config.dramLatency;
    fast.readBandwidth = config.fastBandwidth;
    fast.writeBandwidth = config.fastBandwidth;
    fast.socket = 0;
    _fast = _system->tiers().addTier(fast);

    TierSpec slow;
    slow.name = "slow-dram";
    slow.capacity = config.slowCapacity / config.scale;
    slow.readLatency = config.dramLatency;
    slow.writeLatency = config.dramLatency;
    slow.readBandwidth = config.fastBandwidth / config.bandwidthRatio;
    slow.writeBandwidth = config.fastBandwidth / config.bandwidthRatio;
    slow.socket = 0;  // same socket: throttled DRAM, not NUMA
    _slow = _system->tiers().addTier(slow);

    _system->buildSubsystems();
}

TwoTierPlatform::TwoTierPlatform(const Config &config,
                                 const std::string &policy)
    : TwoTierPlatform(sizedFor(config, policy))
{
    applyPolicyByName(policy);
}

} // namespace kloc
