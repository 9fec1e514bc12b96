#include "fs/block_layer.hh"

#include "base/logging.hh"

namespace kloc {

BlockLayer::BlockLayer(KernelHeap &heap, KlocManager *kloc,
                       BlockDevice &device)
    : _heap(heap), _kloc(kloc), _device(device)
{
    _ctxs.resize(heap.mem().machine().cpuCount());
}

BlockLayer::~BlockLayer()
{
    for (auto &ctx : _ctxs) {
        if (ctx)
            _heap.freeBacking(*ctx);
    }
}

BlkMqCtx *
BlockLayer::ctxForCpu(unsigned cpu)
{
    auto &slot = _ctxs[cpu];
    if (!slot) {
        slot = std::make_unique<BlkMqCtx>();
        slot->cpu = cpu;
        // blk-mq contexts are global per-CPU structures: allocated
        // once, never knode-tracked, hot for the process lifetime.
        const bool ok = _heap.allocBacking(*slot, true, 0);
        KLOC_ASSERT(ok, "no memory for blk_mq ctx");
    }
    return slot.get();
}

IoStatus
BlockLayer::submit(Knode *knode, bool active, uint64_t sector, Bytes length,
                   bool write, bool foreground)
{
    Machine &machine = _heap.mem().machine();

    // Allocate the bio and run the dispatch path. The bio is the
    // modelled object itself (kernel bios are born per request too),
    // not bookkeeping churn. klint:allow(hot-path-alloc): the bio
    // is the modelled object, born per request by design.
    auto bio = std::make_unique<Bio>();
    bio->sector = sector;
    bio->length = length;
    bio->write = write;
    const uint64_t group = knode ? knode->id : 0;
    if (!_heap.allocBacking(*bio, active, group)) {
        // Memory exhaustion on the I/O path: fall back to charging
        // the device cost without the bio bookkeeping. Single
        // attempt; there is no bio to park while backing off.
        return foreground
            ? _device.submitForeground(sector, length, write)
            : _device.submitBackground(sector, length, write);
    }
    if (_kloc && knode)
        _kloc->addObject(knode, bio.get());

    _heap.touchObject(*bio, AccessType::Write);
    const uint64_t bio_id = ++_bioSeq;
    Frame *backing = bio->frame();
    const uint64_t frame_key = traceFrameKey(backing->tier, backing->pfn);
    // The device charge below can dispatch async daemon work that
    // migrates frames; a frame with an in-flight bio must stay put
    // (the DMA targets its physical address), so pin it for the
    // duration of the submission — including every retry backoff,
    // which also advances the clock.
    backing->pin();
    machine.tracer().emit(TraceEventType::FramePin, backing->tier,
                          backing->pfn);
    machine.tracer().emit(TraceEventType::BioSubmit, bio_id, frame_key,
                          sector, write ? 1 : 0);
    BlkMqCtx *ctx = ctxForCpu(machine.currentCpu());
    _heap.touchObject(*ctx, AccessType::Write);
    ++ctx->dispatched;
    machine.cpuWork(kDispatchCost);

    IoStatus status = IoStatus::Ok;
    for (unsigned attempt = 0; ; ++attempt) {
        status = foreground
            ? _device.submitForeground(sector, length, write)
            : _device.submitBackground(sector, length, write);
        if (status == IoStatus::Ok || attempt >= kMaxRetries)
            break;
        // Transient failure: park the bio for an exponentially
        // growing delay, then resubmit. Foreground callers eat the
        // whole delay; background requeues overlap like any other
        // async work.
        const Tick backoff = kRetryBackoffBase * (int64_t{1} << attempt);
        ++_bioRetries;
        machine.tracer().emit(TraceEventType::BioRetry, bio_id,
                              attempt + 1, static_cast<uint64_t>(backoff));
        if (foreground)
            machine.charge(backoff);
        else
            machine.backgroundTraffic(backoff);
    }
    if (status != IoStatus::Ok) {
        ++_bioErrors;
        machine.tracer().emit(TraceEventType::BioError, bio_id,
                              kMaxRetries + 1);
    }

    // Completion (success or retry exhaustion): the pin is released
    // and the bio freed on every path.
    machine.tracer().emit(TraceEventType::BioComplete, bio_id);
    machine.tracer().emit(TraceEventType::FrameUnpin, backing->tier,
                          backing->pfn);
    backing->unpin();
    if (_kloc && bio->knode)
        _kloc->removeObject(bio.get());
    _heap.freeBacking(*bio);
    ++_bios;
    return status;
}

} // namespace kloc
