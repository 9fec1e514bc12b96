/**
 * @file
 * Redis-like driver (Table 3): an in-memory key-value store serving
 * 16 client connections with a 75%/25% set/get mix over 4M keys,
 * periodically checkpointing (BGSAVE) its state to a dump file.
 *
 * The dataset lives in application pages; every request crosses the
 * network stack (ingress skbuffs, egress responses), making Redis
 * the paper's socket-buffer-sensitive workload (Fig. 5c).
 */

#ifndef KLOC_WORKLOAD_REDIS_HH
#define KLOC_WORKLOAD_REDIS_HH

#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** Redis-like networked KV store driver. */
class RedisWorkload : public Workload
{
  public:
    static constexpr unsigned kClients = 16;
    static constexpr Bytes kValueBytes{1024};
    static constexpr Bytes kRequestBytes{64};
    static constexpr Bytes kCkptChunk = 1 * kMiB;

    explicit RedisWorkload(const WorkloadConfig &config);

    const char *name() const override { return "redis"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

    uint64_t checkpoints() const { return _checkpoints; }

  private:
    void bgsave(System &sys);

    std::vector<int> _clients;
    uint64_t _numKeys;
    Bytes _datasetBytes{};
    uint64_t _checkpoints = 0;
    std::unique_ptr<ZipfianGenerator> _zipf;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_REDIS_HH
