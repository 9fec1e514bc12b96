/**
 * @file
 * Filebench-like driver (Table 3): 16 threads issuing 50%
 * sequential / 50% random 4 KB I/O against one 32 GB file, with a
 * 70/30 read/write mix and periodic fsync — the most
 * kernel-time-intensive workload in the paper (86% of execution in
 * the OS, §3.1).
 */

#ifndef KLOC_WORKLOAD_FILEBENCH_HH
#define KLOC_WORKLOAD_FILEBENCH_HH

#include <string>

#include "workload/workload.hh"

namespace kloc {

/** Filebench-like file microbenchmark driver. */
class FilebenchWorkload : public Workload
{
  public:
    static constexpr Bytes kIoBytes = 4 * kKiB;
    static constexpr Bytes kLoadChunk = 1 * kMiB;
    static constexpr unsigned kFsyncEvery = 4096;

    explicit FilebenchWorkload(const WorkloadConfig &config)
        : Workload(config)
    {}

    const char *name() const override { return "filebench"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    const std::string _fileName = "filebench_bigfile";
    int _fd = -1;
    Bytes _fileBytes{};
    uint64_t _seqCursor = 0;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_FILEBENCH_HH
