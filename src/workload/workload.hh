/**
 * @file
 * Workload driver interface and common machinery.
 *
 * Each driver reproduces the kernel-object footprint, lifetime, and
 * reuse pattern of one Table 3 application: the syscall mix, file
 * sizes, socket traffic, and app-memory behaviour — not the
 * application's business logic. Paper-scale datasets are divided by
 * the platform scale factor.
 *
 * All drivers are deterministic given their seed and rotate across
 * the configured CPUs to emulate the 16 worker threads.
 */

#ifndef KLOC_WORKLOAD_WORKLOAD_HH
#define KLOC_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/units.hh"
#include "platform/system.hh"

namespace kloc {

/** Outcome of one measured workload run. */
struct WorkloadResult
{
    uint64_t operations = 0;
    Tick elapsed{};

    /** Operations per virtual second. */
    double
    throughput() const
    {
        return elapsed <= 0
            ? 0.0
            : static_cast<double>(operations) /
              (static_cast<double>(elapsed) /
               static_cast<double>(kSecond));
    }
};

/** Scaling knobs shared by every driver. */
struct WorkloadConfig
{
    /** Linear scale divisor vs. paper-size datasets. */
    unsigned scale = 64;
    /** Measured operations (driver-specific meaning). */
    uint64_t operations = 60000;
    /** Use the 10 GB "Small" inputs instead of 40 GB "Large". */
    bool smallInput = false;
    /** Back the app arena with 2 MB transparent huge pages (§5). */
    bool hugePages = false;
    uint64_t seed = 42;
    /** CPUs to rotate over; empty = all CPUs of the machine. */
    std::vector<unsigned> cpus;
};

/** A runnable workload driver. */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &config)
        : _config(config), _rng(config.seed)
    {}

    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Build the dataset (load phase, not measured). */
    virtual void setup(System &sys) = 0;

    /** Measured phase. */
    virtual WorkloadResult run(System &sys) = 0;

    /** Release app memory and scratch files (after measuring). */
    virtual void teardown(System &sys);

    const WorkloadConfig &config() const { return _config; }

    /**
     * Re-pin the worker CPU rotation (e.g. after the scheduler moved
     * the task to another socket on the Optane platform).
     */
    void setCpus(std::vector<unsigned> cpus) { _config.cpus = std::move(cpus); }

  protected:
    /** Move the thread of control to the next worker CPU. */
    void rotateCpu(System &sys);

    /** Scale @p paper_bytes down by the configured factor. */
    Bytes
    scaled(Bytes paper_bytes) const
    {
        const Bytes b = paper_bytes / _config.scale;
        return b < kPageSize ? kPageSize : b;
    }

    /** Allocate one app page (reclaiming page cache on pressure). */
    Frame *appAlloc(System &sys);

    /** Allocate @p count app pages into the arena. */
    void growArena(System &sys, uint64_t count);

    /**
     * Touch @p bytes of the @p idx-th arena page. @p idx wraps modulo
     * the arena size (callers hash keys and counters straight in); an
     * empty arena touches nothing. The division is taken only for an
     * index out of range and laid out off the straight path, so a
     * sweep that stays in range pays a compare per touch.
     */
    void
    touchArena(System &sys, uint64_t idx, Bytes bytes, AccessType type)
    {
        const size_t size = _arena.size();
        if (size == 0)
            return;
        if (idx >= size) [[unlikely]]
            idx %= size;
        sys.mem().touch(_arena[idx], bytes, type);
    }

    /**
     * Touch @p bytes of arena pages @p first .. @p first + @p n - 1 in
     * order, exactly as n touchArena calls would, through
     * MemAccessor::touchEach. The run must lie inside the arena; an
     * empty arena touches nothing.
     */
    void
    touchArenaRun(System &sys, uint64_t first, uint64_t n, Bytes bytes,
                  AccessType type)
    {
        if (_arena.empty())
            return;
        KLOC_ASSERT(first <= _arena.size() && n <= _arena.size() - first,
                    "arena run %llu+%llu past %zu pages",
                    static_cast<unsigned long long>(first),
                    static_cast<unsigned long long>(n), _arena.size());
        sys.mem().touchEach(_arena.data() + first, n, bytes, type);
    }

    uint64_t arenaSize() const { return _arena.size(); }

    void releaseArena(System &sys);

    WorkloadConfig _config;
    Rng _rng;
    std::vector<Frame *> _arena;

  private:
    size_t _cpuCursor = 0;
};

/**
 * LRU cache of open file descriptors, like RocksDB's table cache:
 * files are opened on demand and closed when evicted, producing the
 * open/close (knode active/inactive) churn the paper exploits.
 */
class FdCache
{
  public:
    explicit FdCache(size_t capacity) : _capacity(capacity) {}

    /** fd for @p name, opening it if needed; -1 when absent. */
    int get(System &sys, const std::string &name);

    /** Close and forget @p name if cached (before unlink). */
    void drop(System &sys, const std::string &name);

    /** Close everything. */
    void clear(System &sys);

    size_t size() const { return _entries.size(); }

  private:
    size_t _capacity;
    /** MRU-first list of (name, fd). */
    std::vector<std::pair<std::string, int>> _entries;
};

/** One registered workload driver. */
struct WorkloadEntry
{
    const char *name;
    /** A Table 3 workload of the paper; false for an extension. */
    bool paper;
    std::unique_ptr<Workload> (*make)(const WorkloadConfig &config);
};

/**
 * Every registered driver: the paper's workloads in Table 3 order,
 * then the extensions (varmail, webserver, thrash).
 */
std::span<const WorkloadEntry> workloadTable();

/** Construct a driver by name ("rocksdb", "redis", ...). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &config);

/**
 * The paper's workload names, in Table 3 order. The figure benches
 * key their metrics on these; workloadTable() lists the extensions
 * too.
 */
std::vector<std::string> workloadNames();

} // namespace kloc

#endif // KLOC_WORKLOAD_WORKLOAD_HH
