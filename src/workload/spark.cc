#include "workload/spark.hh"

#include "base/logging.hh"

namespace kloc {

void
SparkWorkload::setup(System &sys)
{
    // Executor shuffle/sort buffers.
    growArena(sys, scaled(4 * kGiB) / kPageSize);
    const Bytes dataset =
        scaled(_config.smallInput ? 10 * kGiB : 20 * kGiB);
    _partBytes = dataset / kPartitions;
}

uint64_t
SparkWorkload::generate(System &sys)
{
    uint64_t chunks = 0;
    for (unsigned part = 0; part < kPartitions; ++part) {
        const std::string name = "ts_in_" + std::to_string(_jobId) +
                                 "_" + std::to_string(part);
        const int fd = sys.fs().create(name);
        KLOC_ASSERT(fd >= 0, "terasort input exists");
        for (Bytes off{}; off < _partBytes; off += kChunkBytes) {
            rotateCpu(sys);
            // teragen: synthesize rows in app memory, then write.
            touchArena(sys, off / kPageSize + part, kChunkBytes,
                       AccessType::Write);
            sys.fs().write(fd, off, kChunkBytes);
            ++chunks;
        }
        sys.fs().fsync(fd);
        sys.fs().close(fd);
        _inputs.push_back(name);
    }
    return chunks;
}

uint64_t
SparkWorkload::sort(System &sys)
{
    uint64_t chunks = 0;
    // Map stage: read every partition, shuffle into sort buffers.
    for (unsigned part = 0; part < kPartitions; ++part) {
        const int fd = sys.fs().open(_inputs[part]);
        if (fd < 0)
            continue;
        for (Bytes off{}; off < _partBytes; off += kChunkBytes) {
            rotateCpu(sys);
            sys.fs().read(fd, off, kChunkBytes);
            // Shuffle write into a partition-strided buffer region.
            touchArena(sys,
                       (off / kPageSize) * kPartitions + part,
                       kChunkBytes, AccessType::Write);
            ++chunks;
        }
        sys.fs().close(fd);
    }
    // Reduce stage: merge the buffers and write sorted output, which
    // HDFS checkpoints (fsync) per part file.
    for (unsigned part = 0; part < kPartitions; ++part) {
        const std::string name = "ts_out_" + std::to_string(_jobId) +
                                 "_" + std::to_string(part);
        const int fd = sys.fs().create(name);
        if (fd < 0)
            continue;
        for (Bytes off{}; off < _partBytes; off += kChunkBytes) {
            rotateCpu(sys);
            touchArena(sys,
                       (off / kPageSize) * kPartitions + part,
                       kChunkBytes, AccessType::Read);
            sys.fs().write(fd, off, kChunkBytes);
            ++chunks;
        }
        sys.fs().fsync(fd);
        sys.fs().close(fd);
        _outputs.push_back(name);
    }
    return chunks;
}

WorkloadResult
SparkWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    // Each run() is one fresh terasort job; old files are retired
    // first so repeated jobs (warm-up + measurement) compose.
    for (const auto &name : _inputs)
        sys.fs().unlink(name);
    for (const auto &name : _outputs)
        sys.fs().unlink(name);
    _inputs.clear();
    _outputs.clear();
    ++_jobId;
    result.operations += generate(sys);
    result.operations += sort(sys);
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
SparkWorkload::teardown(System &sys)
{
    for (const auto &name : _inputs)
        sys.fs().unlink(name);
    for (const auto &name : _outputs)
        sys.fs().unlink(name);
    _inputs.clear();
    _outputs.clear();
    Workload::teardown(sys);
}

} // namespace kloc
