#include "workload/filebench.hh"

#include "base/logging.hh"

namespace kloc {

void
FilebenchWorkload::setup(System &sys)
{
    // Small thread-private buffers only; filebench is about the
    // kernel, not app memory.
    growArena(sys, scaled(256 * kMiB) / kPageSize);

    _fileBytes = scaled(_config.smallInput ? 10 * kGiB : 32 * kGiB);
    _fd = sys.fs().create(_fileName);
    KLOC_ASSERT(_fd >= 0, "filebench file already exists");
    for (Bytes off{}; off < _fileBytes; off += kLoadChunk) {
        rotateCpu(sys);
        sys.fs().write(_fd, off, kLoadChunk);
        if ((off / kLoadChunk) % 64 == 63)
            sys.fs().fsync(_fd);
    }
    sys.fs().fsync(_fd);
}

WorkloadResult
FilebenchWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    const uint64_t pages = _fileBytes / kIoBytes;
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        uint64_t page;
        if (_rng.nextBool(0.5)) {
            page = _seqCursor++ % pages;
        } else {
            page = _rng.nextBounded(pages);
        }
        const Bytes offset = page * kIoBytes;
        // Table 3: 50% sequential / 50% random *reads* on the file.
        sys.fs().read(_fd, offset, kIoBytes);
        touchArena(sys, op, Bytes{256}, AccessType::Write);
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
FilebenchWorkload::teardown(System &sys)
{
    if (_fd >= 0) {
        sys.fs().close(_fd);
        _fd = -1;
    }
    sys.fs().unlink(_fileName);
    Workload::teardown(sys);
}

} // namespace kloc
