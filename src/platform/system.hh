/**
 * @file
 * System: the fully composed simulated machine — memory tiers,
 * allocators, KLOC, filesystem, and network stack — in dependency
 * order. Platforms (two-tier, Optane) build one of these with their
 * tier layout, then policies and workloads run against it.
 *
 * The System also hosts the installed Policy, so both platforms share
 * one policy lifecycle (applyPolicy) and one teardown placement.
 */

#ifndef KLOC_PLATFORM_SYSTEM_HH
#define KLOC_PLATFORM_SYSTEM_HH

#include <memory>

#include "core/kloc_manager.hh"
#include "fs/vfs.hh"
#include "kobj/kernel_heap.hh"
#include "mem/accessor.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "net/net_stack.hh"
#include "policy/registry.hh"
#include "sim/machine.hh"

namespace kloc {

/** The composed simulated kernel + machine. */
class System
{
  public:
    struct Config
    {
        unsigned cpus = 16;
        unsigned sockets = 1;
        double llcHitFraction = 0.35;
        FileSystem::Config fs;
        NetworkStack::Config net;
    };

    explicit System(const Config &config)
        : _machine(config.cpus, config.sockets),
          _tiers(_machine),
          _lru(_machine, _tiers),
          _mem(_machine, _lru),
          _migrator(_machine, _tiers, _lru),
          _heap(_mem, _tiers),
          _kloc(_heap, _migrator),
          _config(config)
    {
        _machine.memModel().setLlcHitFraction(config.llcHitFraction);
    }

    /**
     * Stops the policy, then falls back to the static placement for
     * teardown: the FS and KLOC destructors still allocate (journal
     * records for unlink metadata) after the policy is gone. Clears
     * the re-read hook once the FS is gone.
     */
    ~System();

    /**
     * Create the FS and network stacks (after tiers are added) and
     * install the static placement: every tier in id order, used
     * before the first policy and during teardown.
     */
    void
    buildSubsystems()
    {
        TierPreference all_tiers;
        for (size_t t = 0; t < _tiers.tierCount(); ++t)
            all_tiers.push_back(static_cast<TierId>(t));
        _staticPlacement =
            std::make_unique<StaticPlacement>(all_tiers, all_tiers);
        _heap.setPolicy(_staticPlacement.get());
        _fs = std::make_unique<FileSystem>(_heap, &_kloc, _config.fs);
        _net = std::make_unique<NetworkStack>(_heap, &_kloc, _config.net);
        // hwpoison containment recovers clean page-cache pages by
        // re-reading them from the device through the block layer.
        _migrator.setRereadHook(
            [](void *ctx, Frame *frame) {
                return static_cast<FileSystem *>(ctx)->canRereadFrame(
                    frame);
            },
            [](void *ctx, Frame *frame) {
                return static_cast<FileSystem *>(ctx)->rereadFrame(frame);
            },
            _fs.get());
    }

    Machine &machine() { return _machine; }
    TierManager &tiers() { return _tiers; }
    LruEngine &lru() { return _lru; }
    MemAccessor &mem() { return _mem; }
    MigrationEngine &migrator() { return _migrator; }
    KernelHeap &heap() { return _heap; }
    KlocManager &kloc() { return _kloc; }
    FileSystem &fs() { return *_fs; }
    NetworkStack &net() { return *_net; }

    const Config &config() const { return _config; }

    /**
     * Install and start @p policy, replacing (stopping) any previous
     * one. The one policy lifecycle: a non-KLOC policy gets the KLOC
     * runtime and the early-demux driver extension switched off, so a
     * previously applied KLOC policy leaves no residue.
     */
    Policy &applyPolicy(std::unique_ptr<Policy> policy);

    /**
     * Build the registry policy @p name of @p platform over tiers
     * @p fast and @p slow (see PolicyContext) and apply it. Exits with
     * an error on unknown names.
     */
    Policy &applyPolicyByName(const std::string &name,
                              PolicyPlatform platform, TierId fast,
                              TierId slow);

    /** The applied policy, or nullptr before the first apply. */
    Policy *policy() { return _policy.get(); }

    /**
     * Snapshot every interesting counter into a StatSet — the
     * single reporting surface examples, the CLI, and experiment
     * logs share.
     */
    StatSet snapshot() const;

  private:
    /** Declared first so it outlives every subsystem destructor. */
    std::unique_ptr<StaticPlacement> _staticPlacement;
    Machine _machine;
    TierManager _tiers;
    LruEngine _lru;
    MemAccessor _mem;
    MigrationEngine _migrator;
    KernelHeap _heap;
    KlocManager _kloc;
    Config _config;
    std::unique_ptr<Policy> _policy;
    std::unique_ptr<FileSystem> _fs;
    std::unique_ptr<NetworkStack> _net;
};

} // namespace kloc

#endif // KLOC_PLATFORM_SYSTEM_HH
