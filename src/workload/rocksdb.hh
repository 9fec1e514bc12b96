/**
 * @file
 * RocksDB-like LSM driver (Table 3): dbbench with 1M keys and 16
 * client threads, 50% random/sequential writes and reads.
 *
 * Persistent key-values live in hundreds of 4 MB string-sorted
 * table (SST) files; puts fill an in-memory memtable that flushes to
 * a fresh SST when full; background compaction merges old SSTs and
 * unlinks the inputs. Reads consult the memtable, then index + data
 * blocks of the owning SST through an LRU table (fd) cache — the
 * open/close churn behind the paper's knode lifecycle.
 */

#ifndef KLOC_WORKLOAD_ROCKSDB_HH
#define KLOC_WORKLOAD_ROCKSDB_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** RocksDB-like LSM key-value store driver. */
class RocksDbWorkload : public Workload
{
  public:
    static constexpr Bytes kSstBytes = 4 * kMiB;
    static constexpr Bytes kValueBytes{1024};
    static constexpr Bytes kChunkBytes = 64 * kKiB;
    static constexpr unsigned kFdCacheCap = 64;
    static constexpr unsigned kCompactEvery = 4;   ///< flushes
    static constexpr unsigned kCompactWidth = 4;   ///< input SSTs

    explicit RocksDbWorkload(const WorkloadConfig &config);

    const char *name() const override { return "rocksdb"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    void writeSst(System &sys, const std::string &name);
    void flushMemtable(System &sys);
    void compact(System &sys);
    void doPut(System &sys, uint64_t key);
    void doGet(System &sys, uint64_t key);

    FdCache _fdCache;
    std::vector<std::string> _liveSsts;
    uint64_t _nextSstId = 0;
    uint64_t _numKeys;
    Bytes _memtableFill{};
    uint64_t _flushes = 0;
    std::unique_ptr<ZipfianGenerator> _zipf;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_ROCKSDB_HH
