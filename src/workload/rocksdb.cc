#include "workload/rocksdb.hh"

#include "base/logging.hh"

namespace kloc {

RocksDbWorkload::RocksDbWorkload(const WorkloadConfig &config)
    : Workload(config), _fdCache(kFdCacheCap)
{
    // dbbench: 1M keys at paper scale.
    _numKeys = 1000000 / config.scale;
    if (_numKeys < 1024)
        _numKeys = 1024;
    _zipf = std::make_unique<ZipfianGenerator>(_numKeys, 0.99,
                                               config.seed ^ 0x5eed);
}

void
RocksDbWorkload::writeSst(System &sys, const std::string &name)
{
    const int fd = sys.fs().create(name);
    KLOC_ASSERT(fd >= 0, "sst '%s' already exists", name.c_str());
    for (Bytes off{}; off < kSstBytes; off += kChunkBytes) {
        rotateCpu(sys);
        // The flush thread reads the immutable memtable and writes.
        touchArena(sys, off / kPageSize, kChunkBytes, AccessType::Read);
        sys.fs().write(fd, off, kChunkBytes);
    }
    // Flush/compaction threads run in the background; the dirty SST
    // pages reach the device through the writeback daemon rather
    // than a blocking fsync.
    sys.fs().close(fd);
    _liveSsts.push_back(name);
}

void
RocksDbWorkload::setup(System &sys)
{
    // Memtable (4 MB) plus a block-cache-like app heap.
    const Bytes dataset =
        scaled(_config.smallInput ? 10 * kGiB : 40 * kGiB);
    const Bytes app_heap = scaled(2 * kGiB);
    growArena(sys, (kSstBytes + app_heap) / kPageSize);

    const uint64_t initial_ssts = dataset / kSstBytes;
    for (uint64_t i = 0; i < initial_ssts; ++i)
        writeSst(sys, "sst_" + std::to_string(_nextSstId++));
}

void
RocksDbWorkload::flushMemtable(System &sys)
{
    _memtableFill = Bytes{};
    writeSst(sys, "sst_" + std::to_string(_nextSstId++));
    ++_flushes;
    if (_flushes % kCompactEvery == 0)
        compact(sys);
}

void
RocksDbWorkload::compact(System &sys)
{
    if (_liveSsts.size() < 40)
        return;
    // Leveled compaction churns the young levels: inputs come from
    // the oldest files of the newest band, while genuinely cold
    // bottom-level files persist untouched (they are the fast-memory
    // pollution Naive suffers from). Read all inputs, emit one
    // output, unlink the inputs (deallocation, not migration, §3.2).
    const size_t band_start = _liveSsts.size() - 32;
    std::vector<std::string> inputs(
        _liveSsts.begin() + static_cast<ptrdiff_t>(band_start),
        _liveSsts.begin() + static_cast<ptrdiff_t>(band_start +
                                                   kCompactWidth));
    for (const auto &input : inputs) {
        const int fd = _fdCache.get(sys, input);
        if (fd < 0)
            continue;
        for (Bytes off{}; off < kSstBytes; off += kChunkBytes) {
            rotateCpu(sys);
            sys.fs().read(fd, off, kChunkBytes);
        }
    }
    _liveSsts.erase(_liveSsts.begin() +
                        static_cast<ptrdiff_t>(band_start),
                    _liveSsts.begin() +
                        static_cast<ptrdiff_t>(band_start +
                                               kCompactWidth));
    writeSst(sys, "sst_" + std::to_string(_nextSstId++));
    for (const auto &input : inputs) {
        _fdCache.drop(sys, input);
        sys.fs().unlink(input);
    }
}

void
RocksDbWorkload::doPut(System &sys, uint64_t key)
{
    // Append into the memtable (app memory).
    touchArena(sys, key % (kSstBytes / kPageSize), kValueBytes,
               AccessType::Write);
    _memtableFill += kValueBytes;
    if (_memtableFill >= kSstBytes)
        flushMemtable(sys);
}

void
RocksDbWorkload::doGet(System &sys, uint64_t key)
{
    // Memtable probe.
    touchArena(sys, key % (kSstBytes / kPageSize), Bytes{200},
               AccessType::Read);
    if (_liveSsts.empty())
        return;
    // Key -> SST: hot (low) keys map to recent SSTs.
    const uint64_t pos =
        _liveSsts.size() - 1 -
        (key * _liveSsts.size() / _numKeys) % _liveSsts.size();
    const int fd = _fdCache.get(sys, _liveSsts[pos]);
    if (fd < 0)
        return;
    // Index block, then the data block holding the key.
    sys.fs().read(fd, Bytes{0}, kPageSize);
    const uint64_t blocks = kSstBytes / kPageSize;
    const uint64_t block = 1 + key % (blocks - 1);
    sys.fs().read(fd, block * kPageSize, kPageSize);
}

WorkloadResult
RocksDbWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const uint64_t key = _zipf->next();
        // dbbench mix: 50% writes, 50% reads, half sequential.
        if (_rng.nextBool(0.5))
            doPut(sys, _rng.nextBool(0.5) ? op % _numKeys : key);
        else
            doGet(sys, _rng.nextBool(0.5) ? op % _numKeys : key);
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
RocksDbWorkload::teardown(System &sys)
{
    _fdCache.clear(sys);
    // Detach before unlinking: fs calls can re-enter via daemons.
    std::vector<std::string> ssts;
    ssts.swap(_liveSsts);
    for (const auto &name : ssts)
        sys.fs().unlink(name);
    Workload::teardown(sys);
}

} // namespace kloc
