#include "platform/system.hh"

#include "base/logging.hh"
#include "policy/strategy.hh"

namespace kloc {

System::~System()
{
    if (_policy)
        _policy->stop();
    _heap.setPolicy(_staticPlacement.get());
    _policy.reset();
    // Torn down in member order, but here, so the re-read hook is
    // cleared before ~KlocManager, which charges time: an event it
    // runs must not re-read a page through the freed FileSystem.
    _net.reset();
    _fs.reset();
    _migrator.setRereadHook(nullptr, nullptr, nullptr);
}

Policy &
System::applyPolicy(std::unique_ptr<Policy> policy)
{
    KLOC_ASSERT(policy != nullptr, "applyPolicy(nullptr)");
    if (_policy)
        _policy->stop();
    _policy = std::move(policy);
    _policy->install();
    const bool kloc_on = _policy->usesKloc();
    if (!kloc_on) {
        // A prior KLOC policy may have left the runtime enabled, and
        // a policy built without a KlocManager cannot switch it off.
        setKlocMode(_heap, &_kloc, false, {});
    }
    // The KLOC policies also use the early-demux driver extension.
    _net->setEarlyDemux(kloc_on);
    _policy->start();
    return *_policy;
}

Policy &
System::applyPolicyByName(const std::string &name, PolicyPlatform platform,
                          TierId fast, TierId slow)
{
    std::unique_ptr<Policy> policy = makePolicy(
        name, PolicyContext{_heap, _lru, _migrator, &_kloc, fast, slow},
        platform);
    if (policy == nullptr)
        fatal("unknown policy '%s'", name.c_str());
    return applyPolicy(std::move(policy));
}

StatSet
System::snapshot() const
{
    StatSet stats;
    stats.set("time_ms", static_cast<double>(_machine.now()) /
                         static_cast<double>(kMillisecond));
    stats.set("kernel_refs", static_cast<double>(_machine.kernelRefs()));
    stats.set("user_refs", static_cast<double>(_machine.userRefs()));
    stats.set("kernel_ref_ms",
              static_cast<double>(_machine.kernelRefTicks()) /
              static_cast<double>(kMillisecond));
    stats.set("user_ref_ms",
              static_cast<double>(_machine.userRefTicks()) /
              static_cast<double>(kMillisecond));

    for (size_t t = 0; t < _tiers.tierCount(); ++t) {
        const Tier &tier = _tiers.tier(static_cast<TierId>(t));
        const std::string prefix = "tier." + tier.spec().name + ".";
        stats.set(prefix + "used_pages",
                  static_cast<double>(tier.usedPages()));
        stats.set(prefix + "utilization", tier.utilization());
        for (unsigned c = 0; c < kNumObjClasses; ++c) {
            const auto cls = static_cast<ObjClass>(c);
            stats.set(prefix + "resident." + objClassName(cls),
                      static_cast<double>(tier.residentPages(cls)));
        }
    }

    const MigrationStats &mig = _migrator.stats();
    for (const MigrationStatField &field : kMigrationStatFields) {
        stats.set(std::string("migration.") + field.name,
                  static_cast<double>(mig.*field.member));
    }

    const FaultInjector &faults = _machine.faults();
    if (faults.armed()) {
        stats.set("faults.total_fires",
                  static_cast<double>(faults.totalFires()));
    }

    const KlocStats &ks = _kloc.stats();
    stats.set("kloc.enabled", _kloc.enabled() ? 1 : 0);
    stats.set("kloc.knodes_created",
              static_cast<double>(ks.knodesCreated));
    stats.set("kloc.knodes_live", static_cast<double>(_kloc.knodeCount()));
    stats.set("kloc.objects_tracked",
              static_cast<double>(ks.objectsTracked));
    stats.set("kloc.percpu_hits", static_cast<double>(ks.perCpuHits));
    stats.set("kloc.percpu_misses",
              static_cast<double>(ks.perCpuMisses));
    stats.set("kloc.metadata_peak_bytes",
              static_cast<double>(_kloc.peakMetadataBytes()));

    if (_fs) {
        const FsStats &fss = _fs->stats();
        stats.set("fs.reads", static_cast<double>(fss.reads));
        stats.set("fs.writes", static_cast<double>(fss.writes));
        stats.set("fs.read_hits", static_cast<double>(fss.readPageHits));
        stats.set("fs.read_misses",
                  static_cast<double>(fss.readPageMisses));
        stats.set("fs.readahead_pages",
                  static_cast<double>(fss.readaheadPages));
        stats.set("fs.reclaimed_pages",
                  static_cast<double>(fss.reclaimedPages));
        stats.set("fs.writeback_pages",
                  static_cast<double>(fss.writebackPages));
        stats.set("fs.cached_pages",
                  static_cast<double>(_fs->cachedPages()));
        stats.set("fs.live_inodes",
                  static_cast<double>(_fs->liveInodes()));
        stats.set("fs.device_requests",
                  static_cast<double>(_fs->device().requests()));
        stats.set("fs.journal_commits",
                  static_cast<double>(_fs->journal().committedTxs()));
        stats.set("fs.device_io_errors",
                  static_cast<double>(_fs->device().ioErrors()));
        stats.set("fs.device_timeouts",
                  static_cast<double>(_fs->device().timeouts()));
        stats.set("fs.bio_retries",
                  static_cast<double>(_fs->blockLayer().bioRetries()));
        stats.set("fs.bio_errors",
                  static_cast<double>(_fs->blockLayer().bioErrors()));
        stats.set("fs.read_errors",
                  static_cast<double>(fss.readErrors));
        stats.set("fs.writeback_errors",
                  static_cast<double>(fss.writebackErrors));
        stats.set("fs.journal_crashes",
                  static_cast<double>(_fs->journal().crashes()));
        stats.set("fs.journal_recovered",
                  static_cast<double>(_fs->journal().recoveredTxs()));
        stats.set("fs.journal_commit_aborts",
                  static_cast<double>(_fs->journal().commitAborts()));
    }
    if (_net) {
        const NetStats &ns = _net->stats();
        stats.set("net.packets_delivered",
                  static_cast<double>(ns.packetsDelivered));
        stats.set("net.packets_sent",
                  static_cast<double>(ns.packetsSent));
        stats.set("net.early_demux",
                  static_cast<double>(ns.earlyDemuxPackets));
        stats.set("net.rx_drops", static_cast<double>(ns.rxDrops));
        stats.set("net.live_sockets",
                  static_cast<double>(_net->liveSockets()));
    }
    return stats;
}

} // namespace kloc
