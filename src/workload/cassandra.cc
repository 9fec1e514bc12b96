#include "workload/cassandra.hh"

#include "base/logging.hh"

namespace kloc {

CassandraWorkload::CassandraWorkload(const WorkloadConfig &config)
    : Workload(config), _fdCache(kFdCacheCap)
{
    _numKeys = 200000 / config.scale;
    if (_numKeys < 2048)
        _numKeys = 2048;
    _zipf = std::make_unique<ZipfianGenerator>(_numKeys, 0.99,
                                               config.seed ^ 0xca55);
}

void
CassandraWorkload::setup(System &sys)
{
    // JVM heap: row cache + memtables (Table 3: 11 GB footprint,
    // most of it application memory).
    growArena(sys, scaled(_config.smallInput ? 6 * kGiB : 8 * kGiB) /
                   kPageSize);
    for (unsigned i = 0; i < kClients; ++i)
        _clients.push_back(sys.net().socket());

    _commitlogFd = sys.fs().create("cassandra_commitlog");
    KLOC_ASSERT(_commitlogFd >= 0, "commitlog exists");

    const Bytes dataset =
        scaled(_config.smallInput ? 10 * kGiB : 40 * kGiB) / 4;
    const uint64_t initial = dataset / kSstableBytes;
    for (uint64_t i = 0; i < initial; ++i)
        writeSstable(sys);
}

void
CassandraWorkload::writeSstable(System &sys)
{
    const std::string name =
        "cassandra_sst_" + std::to_string(_nextSstableId++);
    const int fd = sys.fs().create(name);
    if (fd < 0)
        return;
    for (Bytes off{}; off < kSstableBytes; off += kChunkBytes) {
        rotateCpu(sys);
        touchArena(sys, off / kPageSize, kChunkBytes, AccessType::Read);
        sys.fs().write(fd, off, kChunkBytes);
    }
    // Memtable flushes are background threads in Cassandra.
    sys.fs().close(fd);
    _sstables.push_back(name);
}

void
CassandraWorkload::doRead(System &sys, int sd, uint64_t key)
{
    sys.net().deliver(sd, kRequestBytes);
    sys.net().recv(sd, kRequestBytes);
    sys.machine().cpuWork(kJavaOverhead);

    if (_rng.nextBool(kCacheHitRate) || _sstables.empty()) {
        // Row cache hit: pure app-memory work.
        touchArena(sys, key, kRowBytes, AccessType::Read);
    } else {
        // Miss: probe the owning SSTable (partition index + row).
        const uint64_t pos =
            (key * _sstables.size() / _numKeys) % _sstables.size();
        const int fd = _fdCache.get(sys, _sstables[pos]);
        if (fd >= 0) {
            sys.fs().read(fd, Bytes{0}, kPageSize);
            const uint64_t blocks = kSstableBytes / kPageSize;
            sys.fs().read(fd, (1 + key % (blocks - 1)) * kPageSize,
                          kPageSize);
        }
        // Fill the row cache.
        touchArena(sys, key, kRowBytes, AccessType::Write);
    }
    sys.net().send(sd, kRowBytes);
}

void
CassandraWorkload::doWrite(System &sys, int sd, uint64_t key)
{
    sys.net().deliver(sd, kRequestBytes + kRowBytes);
    sys.net().recv(sd, kRequestBytes + kRowBytes);
    sys.machine().cpuWork(kJavaOverhead);

    // Memtable insert + commitlog append.
    touchArena(sys, key, kRowBytes, AccessType::Write);
    sys.fs().write(_commitlogFd, _commitlogCursor, kRowBytes);
    _commitlogCursor += kRowBytes;
    if (++_commitlogAppends % kCommitlogSyncEvery == 0)
        sys.fs().fsync(_commitlogFd);

    _memtableFill += kRowBytes;
    if (_memtableFill >= kSstableBytes) {
        _memtableFill = Bytes{};
        writeSstable(sys);
        // Size-tiered compaction keeps the table count bounded.
        if (_sstables.size() > 48) {
            const std::string victim = _sstables.front();
            _sstables.erase(_sstables.begin());
            _fdCache.drop(sys, victim);
            sys.fs().unlink(victim);
        }
    }
    sys.net().send(sd, kRequestBytes);
}

WorkloadResult
CassandraWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const int sd = _clients[op % kClients];
        const uint64_t key = _zipf->next();
        if (_rng.nextBool(0.5))
            doRead(sys, sd, key);
        else
            doWrite(sys, sd, key);
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
CassandraWorkload::teardown(System &sys)
{
    _fdCache.clear(sys);
    for (const int sd : _clients)
        sys.net().closeSocket(sd);
    _clients.clear();
    if (_commitlogFd >= 0) {
        sys.fs().close(_commitlogFd);
        _commitlogFd = -1;
    }
    sys.fs().unlink("cassandra_commitlog");
    // Detach before unlinking: fs calls can re-enter via daemons.
    std::vector<std::string> sstables;
    sstables.swap(_sstables);
    for (const auto &name : sstables)
        sys.fs().unlink(name);
    Workload::teardown(sys);
}

} // namespace kloc
