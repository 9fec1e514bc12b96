#include "workload/redis.hh"

#include "base/logging.hh"

namespace kloc {

RedisWorkload::RedisWorkload(const WorkloadConfig &config)
    : Workload(config)
{
    _numKeys = 4000000 / config.scale;
    if (_numKeys < 4096)
        _numKeys = 4096;
    _zipf = std::make_unique<ZipfianGenerator>(_numKeys, 0.99,
                                               config.seed ^ 0xd15);
}

void
RedisWorkload::setup(System &sys)
{
    // Resident key-value heap (Table 3: 14 GB footprint).
    _datasetBytes = scaled(_config.smallInput ? 10 * kGiB : 14 * kGiB);
    growArena(sys, _datasetBytes / kPageSize);
    for (unsigned i = 0; i < kClients; ++i)
        _clients.push_back(sys.net().socket());
}

void
RedisWorkload::bgsave(System &sys)
{
    // Rewrite the dump file: write the whole (sampled) dataset
    // sequentially, fsync, swap.
    const std::string name =
        "redis_dump_" + std::to_string(_checkpoints % 2);
    if (sys.fs().exists(name))
        sys.fs().unlink(name);
    const int fd = sys.fs().create(name);
    if (fd < 0)
        return;
    // Checkpoint an eighth of the dataset per BGSAVE (incremental
    // rewrite keeps run times bounded; traffic shape is identical).
    const Bytes ckpt_bytes = _datasetBytes / 8;
    for (Bytes off{}; off < ckpt_bytes; off += kCkptChunk) {
        rotateCpu(sys);
        touchArena(sys, off / kPageSize, kCkptChunk, AccessType::Read);
        sys.fs().write(fd, off, kCkptChunk);
    }
    // BGSAVE runs in a forked child; the parent never blocks on it.
    sys.fs().close(fd);
    ++_checkpoints;
}

WorkloadResult
RedisWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    const uint64_t ckpt_every = _config.operations / 6 + 1;
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const int sd = _clients[op % kClients];
        const uint64_t key = _zipf->next();
        const uint64_t page = key * (_datasetBytes / kPageSize) / _numKeys;
        if (_rng.nextBool(0.75)) {
            // SET: request carries the value in.
            sys.net().deliver(sd, kRequestBytes + kValueBytes);
            sys.net().recv(sd, kRequestBytes + kValueBytes);
            touchArena(sys, page, kValueBytes, AccessType::Write);
            sys.net().send(sd, kRequestBytes);
        } else {
            // GET: response carries the value out.
            sys.net().deliver(sd, kRequestBytes);
            sys.net().recv(sd, kRequestBytes);
            touchArena(sys, page, kValueBytes, AccessType::Read);
            sys.net().send(sd, kValueBytes);
        }
        if ((op + 1) % ckpt_every == 0)
            bgsave(sys);
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
RedisWorkload::teardown(System &sys)
{
    for (const int sd : _clients)
        sys.net().closeSocket(sd);
    _clients.clear();
    for (unsigned i = 0; i < 2; ++i) {
        const std::string name = "redis_dump_" + std::to_string(i);
        if (sys.fs().exists(name))
            sys.fs().unlink(name);
    }
    Workload::teardown(sys);
}

} // namespace kloc
