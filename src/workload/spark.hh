/**
 * @file
 * Spark-like terasort driver (Table 3): generate a 20 GB dataset
 * across 16 HDFS-style part files, then sort it — reading every
 * part, shuffling through large in-memory buffers, and writing (and
 * checkpointing) sorted output parts.
 *
 * An "operation" is one 256 KB chunk processed, so throughput is
 * proportional to the job's data rate.
 */

#ifndef KLOC_WORKLOAD_SPARK_HH
#define KLOC_WORKLOAD_SPARK_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** Spark/terasort-like analytics driver. */
class SparkWorkload : public Workload
{
  public:
    static constexpr unsigned kPartitions = 16;
    static constexpr Bytes kChunkBytes = 256 * kKiB;

    explicit SparkWorkload(const WorkloadConfig &config)
        : Workload(config)
    {}

    const char *name() const override { return "spark"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    uint64_t generate(System &sys);
    uint64_t sort(System &sys);

    Bytes _partBytes{};
    uint64_t _jobId = 0;   ///< distinct file names per run() invocation
    std::vector<std::string> _inputs;
    std::vector<std::string> _outputs;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_SPARK_HH
