#include "workload/workload.hh"

#include <algorithm>

#include "base/logging.hh"
#include "workload/cassandra.hh"
#include "workload/filebench.hh"
#include "workload/redis.hh"
#include "workload/rocksdb.hh"
#include "workload/spark.hh"
#include "workload/thrash.hh"
#include "workload/varmail.hh"
#include "workload/webserver.hh"

namespace kloc {

namespace {

template <typename Driver>
std::unique_ptr<Workload>
make(const WorkloadConfig &config)
{
    return std::make_unique<Driver>(config);
}

constexpr WorkloadEntry kWorkloads[] = {
    {"rocksdb", true, &make<RocksDbWorkload>},
    {"redis", true, &make<RedisWorkload>},
    {"filebench", true, &make<FilebenchWorkload>},
    {"cassandra", true, &make<CassandraWorkload>},
    {"spark", true, &make<SparkWorkload>},
    {"varmail", false, &make<VarmailWorkload>},
    {"webserver", false, &make<WebserverWorkload>},
    {"thrash", false, &make<ThrashWorkload>},
};

} // namespace

std::span<const WorkloadEntry>
workloadTable()
{
    return kWorkloads;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadConfig &config)
{
    for (const WorkloadEntry &entry : kWorkloads) {
        if (name == entry.name)
            return entry.make(config);
    }
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadEntry &entry : kWorkloads) {
        if (entry.paper)
            names.emplace_back(entry.name);
    }
    return names;
}

void
Workload::rotateCpu(System &sys)
{
    Machine &machine = sys.machine();
    if (_config.cpus.empty()) {
        machine.setCurrentCpu(
            static_cast<unsigned>(_cpuCursor % machine.cpuCount()));
    } else {
        machine.setCurrentCpu(
            _config.cpus[_cpuCursor % _config.cpus.size()]);
    }
    ++_cpuCursor;
}

Frame *
Workload::appAlloc(System &sys)
{
    Frame *frame = sys.heap().allocAppPage();
    if (!frame) {
        sys.fs().reclaimPages(FrameCount{64});
        frame = sys.heap().allocAppPage();
    }
    return frame;
}

void
Workload::growArena(System &sys, uint64_t count)
{
    // THP mode: back the arena with order-9 (2 MB) blocks where the
    // requested size allows, falling back to base pages.
    constexpr unsigned kHugeOrder = 9;
    // One allocation for the whole arena. Grown by doubling, it
    // passed glibc's mmap threshold, and whether a run's setup
    // faulted its memory in again depended on what earlier runs had
    // freed (docs/PERF.md, "Setup that does not depend on the last
    // run").
    _arena.reserve(_arena.size() + count);
    uint64_t remaining = count;
    while (remaining > 0) {
        Frame *frame = nullptr;
        if (_config.hugePages && remaining >= (1ULL << kHugeOrder)) {
            frame = sys.heap().allocAppPages(kHugeOrder);
        }
        if (!frame)
            frame = appAlloc(sys);
        if (!frame) {
            warn("workload %s: app arena truncated at %llu pages",
                 name(), static_cast<unsigned long long>(_arena.size()));
            return;
        }
        // First-touch (fault + zero).
        sys.mem().touch(frame, frame->bytes(), AccessType::Write);
        remaining -= std::min(remaining, frame->pages().value());
        _arena.push_back(frame);
    }
}

void
Workload::releaseArena(System &sys)
{
    for (Frame *frame : _arena)
        sys.heap().freeAppPage(frame);
    _arena.clear();
}

void
Workload::teardown(System &sys)
{
    releaseArena(sys);
}

int
FdCache::get(System &sys, const std::string &name)
{
    for (auto it = _entries.begin(); it != _entries.end(); ++it) {
        if (it->first == name) {
            // Move the hit to the front without copying its name.
            std::rotate(_entries.begin(), it, it + 1);
            return _entries.front().second;
        }
    }
    const int fd = sys.fs().open(name);
    if (fd < 0)
        return -1;
    _entries.insert(_entries.begin(), {name, fd});
    while (_entries.size() > _capacity) {
        sys.fs().close(_entries.back().second);
        _entries.pop_back();
    }
    return fd;
}

void
FdCache::drop(System &sys, const std::string &name)
{
    for (size_t i = 0; i < _entries.size(); ++i) {
        if (_entries[i].first != name)
            continue;
        // Finish the container update before the close: fs calls can
        // re-enter via daemons.
        const int fd = _entries[i].second;
        _entries.erase(_entries.begin() + static_cast<ptrdiff_t>(i));
        sys.fs().close(fd);
        return;
    }
}

void
FdCache::clear(System &sys)
{
    std::vector<std::pair<std::string, int>> entries;
    entries.swap(_entries);
    for (auto &[name, fd] : entries)
        sys.fs().close(fd);
}

} // namespace kloc
