/**
 * @file
 * Cassandra-like driver (Table 3): YCSB 50/50 read-write through a
 * client-server network path, with a large application-level row
 * cache, an append-only commitlog, and memtable flushes to SSTables.
 *
 * The app cache absorbs most reads and the JVM adds per-op CPU, so
 * Cassandra is the workload least sensitive to kernel-object
 * placement — the reason Fig. 4 shows KLOCs ~= Nimble++ here.
 */

#ifndef KLOC_WORKLOAD_CASSANDRA_HH
#define KLOC_WORKLOAD_CASSANDRA_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** Cassandra-like NoSQL store driver. */
class CassandraWorkload : public Workload
{
  public:
    static constexpr Bytes kRowBytes{1024};
    static constexpr Bytes kRequestBytes{64};
    static constexpr Bytes kSstableBytes = 4 * kMiB;
    static constexpr Bytes kChunkBytes = 64 * kKiB;
    static constexpr unsigned kClients = 16;
    static constexpr unsigned kFdCacheCap = 16;
    static constexpr unsigned kCommitlogSyncEvery = 256;
    /** App-cache hit probability (the 512 MB row cache). */
    static constexpr double kCacheHitRate = 0.65;
    /** JVM + serialization overhead per request. */
    static constexpr Tick kJavaOverhead{2000};

    explicit CassandraWorkload(const WorkloadConfig &config);

    const char *name() const override { return "cassandra"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    void writeSstable(System &sys);
    void doRead(System &sys, int sd, uint64_t key);
    void doWrite(System &sys, int sd, uint64_t key);

    FdCache _fdCache;
    std::vector<int> _clients;
    std::vector<std::string> _sstables;
    uint64_t _nextSstableId = 0;
    uint64_t _numKeys;
    int _commitlogFd = -1;
    Bytes _commitlogCursor{};
    uint64_t _commitlogAppends = 0;
    Bytes _memtableFill{};
    std::unique_ptr<ZipfianGenerator> _zipf;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_CASSANDRA_HH
