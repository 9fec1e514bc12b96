#include "perfbench.hh"

namespace kloc::perfbench {

Ledger::Counters
Ledger::Counters::read(System &sys)
{
    Counters c;
    const FsStats &fs = sys.fs().stats();
    c.readHits = fs.readPageHits;
    c.readMisses = fs.readPageMisses;
    const MigrationStats &mig = sys.migrator().stats();
    c.migAttempts = mig.attempts;
    c.migMoved = mig.movedFrames;
    c.lruPagesVisited = sys.lru().totalPagesVisited();
    const KlocStats &kloc = sys.kloc().stats();
    c.percpuHits = kloc.perCpuHits;
    c.percpuMisses = kloc.perCpuMisses;
    c.treeNodesVisited = sys.kloc().treeNodesVisited();
    const NetStats &net = sys.net().stats();
    c.packetsDelivered = net.packetsDelivered;
    c.earlyDemux = net.earlyDemuxPackets;
    c.lateDemux = net.lateDemuxPackets;
    c.rxDrops = net.rxDrops;
    c.kernelRefTicks = sys.machine().kernelRefTicks().value();
    c.userRefTicks = sys.machine().userRefTicks().value();
    return c;
}

void
Ledger::onBuilt(TwoTierPlatform &platform)
{
    _tracer = &platform.sys().machine().tracer();
    _tracer->setEnabled(true);
    _checker = std::make_unique<InvariantChecker>(*_tracer);
    _listenerId = _tracer->addListener(
        [this](const TraceEvent &event) { consume(event); });
}

void
Ledger::onMeasureBegin(TwoTierPlatform &platform)
{
    _seqBegin = _tracer->emitted();
    _before = Counters::read(platform.sys());
}

void
Ledger::onMeasureEnd(TwoTierPlatform &platform)
{
    _seqEnd = _tracer->emitted();
    _after = Counters::read(platform.sys());
}

void
Ledger::beforeDestroy(TwoTierPlatform &)
{
    _violations = _checker->violations();
    _checker.reset();
    _tracer->removeListener(_listenerId);
    _tracer->setEnabled(false);
    for (unsigned k = 0; k < kNumSpanKinds; ++k) {
        const auto kind = static_cast<SpanKind>(k);
        _unpaired += _pairer.openCount(kind) + _pairer.orphanEnds(kind);
    }
}

void
Ledger::consume(const TraceEvent &event)
{
    if (inMeasure(event.seq))
        ++_eventCounts[static_cast<unsigned>(event.type)];
    const auto span = _pairer.consume(event);
    if (span && inMeasure(span->startSeq)) {
        const auto kind = static_cast<unsigned>(span->kind);
        ++_spanCounts[kind];
        _spanTicks[kind] += span->duration().value();
    }
}

MetricValues
Ledger::simMetrics() const
{
    auto count = [this](TraceEventType type) {
        return static_cast<double>(_eventCounts[static_cast<unsigned>(type)]);
    };
    auto spans = [this](SpanKind kind) {
        return static_cast<double>(_spanCounts[static_cast<unsigned>(kind)]);
    };
    auto span_ms = [this](SpanKind kind) {
        return static_cast<double>(_spanTicks[static_cast<unsigned>(kind)]) /
               static_cast<double>(kMillisecond.value());
    };
    // Share of @p part in @p part + @p rest; 0 when both are 0.
    auto share = [](double part, double rest) {
        return part + rest > 0 ? part / (part + rest) : 0.0;
    };
    auto delta = [this](uint64_t Counters::*field) {
        return static_cast<double>(_after.*field - _before.*field);
    };

    MetricValues m;
    m["fs.journal_commits"] = spans(SpanKind::JournalCommit);
    m["fs.journal_commit_sim_ms"] = span_ms(SpanKind::JournalCommit);
    m["fs.journal_detaches"] = spans(SpanKind::JournalDetach);
    m["fs.journal_detach_sim_ms"] = span_ms(SpanKind::JournalDetach);
    m["fs.bios"] = spans(SpanKind::Bio);
    m["fs.bio_sim_ms"] = span_ms(SpanKind::Bio);
    m["fs.read_hit_ratio"] =
        share(delta(&Counters::readHits), delta(&Counters::readMisses));

    const double moved = delta(&Counters::migMoved);
    const double attempts = delta(&Counters::migAttempts);
    m["mem.migrations"] = moved;
    m["mem.migration_sim_ms"] = span_ms(SpanKind::Migration);
    m["mem.migration_success_ratio"] = attempts > 0 ? moved / attempts : 0.0;
    m["mem.lru_scans"] = count(TraceEventType::LruScan);
    m["mem.lru_scanned_pages"] = delta(&Counters::lruPagesVisited);
    m["mem.frame_allocs"] = count(TraceEventType::FrameAlloc);
    m["alloc.buddy_splits"] = count(TraceEventType::BuddySplit);

    m["kloc.knode_maps"] = count(TraceEventType::KnodeMap);
    m["kloc.obj_tracks"] = count(TraceEventType::ObjTrack);
    m["kloc.percpu_hit_ratio"] =
        share(delta(&Counters::percpuHits), delta(&Counters::percpuMisses));
    m["kloc.tree_nodes_visited"] = delta(&Counters::treeNodesVisited);

    const double txn_begins = count(TraceEventType::MigTxnBegin);
    const double shadow_makes = count(TraceEventType::ShadowMake);
    m["policy.txn_abort_ratio"] =
        txn_begins > 0 ? count(TraceEventType::MigTxnAbort) / txn_begins
                       : 0.0;
    m["policy.shadow_reuse_ratio"] =
        shadow_makes > 0 ? count(TraceEventType::ShadowReuse) / shadow_makes
                         : 0.0;

    m["net.packets_delivered"] = delta(&Counters::packetsDelivered);
    m["net.early_demux_ratio"] =
        share(delta(&Counters::earlyDemux), delta(&Counters::lateDemux));
    m["net.rx_drops"] = delta(&Counters::rxDrops);

    m["sim.kernel_ref_share"] =
        share(static_cast<double>(_after.kernelRefTicks -
                                  _before.kernelRefTicks),
              static_cast<double>(_after.userRefTicks -
                                  _before.userRefTicks));
    m["sim.measure_events"] = static_cast<double>(measureEvents());
    return m;
}

} // namespace kloc::perfbench
