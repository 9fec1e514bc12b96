/**
 * @file
 * The Optane Memory-Mode platform of Table 4: two sockets, each a
 * 16 GB hardware-managed DRAM L4 cache in front of 128 GB of
 * persistent memory. Software moves data *between* sockets
 * (AutoNUMA-style); hardware tiers *within* a socket.
 *
 * The DRAM cache is folded into each socket tier's effective timing
 * via a configurable hit fraction: eff = h*dram + (1-h)*pmem, with
 * pmem at 3x read / 5x write latency and a quarter of the bandwidth
 * (§2). A streaming interferer multiplies access costs on one socket
 * (Fig. 5a's experimental setup).
 */

#ifndef KLOC_PLATFORM_OPTANE_HH
#define KLOC_PLATFORM_OPTANE_HH

#include <memory>
#include <string>
#include <vector>

#include "platform/system.hh"

namespace kloc {

/** Optane Memory-Mode platform builder. */
class OptanePlatform
{
  public:
    struct Config
    {
        unsigned scale = 64;
        /** Paper-scale per-socket capacity (128 GB PMEM). */
        Bytes socketCapacity = 128 * kGiB;
        /** DRAM L4 cache hit fraction folded into timing. */
        double dramCacheHitFraction = 0.70;
        Tick dramLatency{80};
        Bytes dramBandwidth = 30ULL * 1000 * kMiB;
        /** Interference factor on the loaded socket. */
        double interferenceFactor = 1.8;
        int interferedSocket = 0;
        System::Config system;
    };

    /** The platform at @p config with no policy applied yet. */
    explicit OptanePlatform(const Config &config);

    /**
     * The platform at @p config with the optanePolicyNames() entry
     * @p policy applied.
     */
    OptanePlatform(const Config &config, const std::string &policy)
        : OptanePlatform(config)
    {
        applyPolicyByName(policy);
    }

    OptanePlatform() : OptanePlatform(Config{}) {}

    System &sys() { return *_system; }

    /** Tier hosting each socket's memory. */
    const std::vector<TierId> &socketTiers() const { return _socketTiers; }

    /**
     * Pin the simulated task to @p socket: subsequent workload CPU
     * rotation stays within that socket's cores.
     */
    void moveTaskToSocket(int socket);

    /** CPUs belonging to the task's socket. */
    std::vector<unsigned> taskCpus() const;

    /** Turn the streaming interferer on/off. */
    void setInterference(bool enabled);

    /** Apply the optanePolicyNames() entry @p name (see System). */
    Policy &
    applyPolicyByName(const std::string &name)
    {
        return _system->applyPolicyByName(name, PolicyPlatform::Optane,
                                          _socketTiers.front(),
                                          _socketTiers.back());
    }

    const Config &config() const { return _config; }

  private:
    Config _config;
    std::unique_ptr<System> _system;
    std::vector<TierId> _socketTiers;
    int _taskSocket = 0;
};

} // namespace kloc

#endif // KLOC_PLATFORM_OPTANE_HH
