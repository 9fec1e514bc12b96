#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/rng.hh"
#include "perfbench.hh"

namespace kloc::perfbench {

namespace {

uint64_t g_probeCalls = 0;

/** Bytes each fs and net probe call moves. */
constexpr Bytes kProbeBytes = 4 * kKiB;

/** Frames one LRU scan probe visits at most. */
constexpr FrameCount kScanFrames{512};

/** Host µs of one call to @p fn. */
template <typename Fn>
double
timeCall(Fn &&fn)
{
    ++g_probeCalls;
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - start).count();
}

} // namespace

uint64_t
probeCalls()
{
    return g_probeCalls;
}

const std::vector<std::string> &
probeNames()
{
    static const std::vector<std::string> names = {
        "fs.create_us",      "fs.write_fsync_us",     "fs.unlink_us",
        "fs.readdir_us",     "fs.read_us",            "kloc.migrate_knode_us",
        "mem.lru_scan_us",   "mem.migrate_us",        "net.conn_us",
    };
    return names;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void
Prober::afterMeasure(TwoTierPlatform &platform)
{
    System &sys = platform.sys();
    FileSystem &fs = sys.fs();
    Rng rng(_seed);

    // The file lifecycle, one stage at a time over _calls files, so
    // the unlinks find the journal records the stages left behind.
    std::vector<std::string> names(_calls);
    std::vector<int> fds(_calls, -1);
    auto &create = _samples["fs.create_us"];
    for (unsigned i = 0; i < _calls; ++i) {
        names[i] = "perfbench_probe_" + std::to_string(i);
        create.push_back(timeCall([&] { fds[i] = fs.create(names[i]); }));
        _failures += fds[i] < 0;
    }
    auto &write_fsync = _samples["fs.write_fsync_us"];
    for (const int fd : fds) {
        if (fd < 0)
            continue;
        write_fsync.push_back(timeCall([&] {
            fs.write(fd, Bytes{0}, kProbeBytes);
            fs.fsync(fd);
        }));
        fs.close(fd);
    }
    auto &unlink = _samples["fs.unlink_us"];
    for (const std::string &name : names) {
        bool ok = false;
        unlink.push_back(timeCall([&] { ok = fs.unlink(name); }));
        _failures += !ok;
    }

    // readdir copies and sorts the whole namespace; a fifth of the
    // calls keeps the probe step short on a large spool.
    std::vector<std::string> listing;
    auto &readdir = _samples["fs.readdir_us"];
    for (unsigned i = 0; i < std::max(1u, _calls / 5); ++i)
        readdir.push_back(timeCall([&] { listing = fs.readdir(); }));

    // Reads of the workload's own files at random page offsets.
    auto &read = _samples["fs.read_us"];
    for (unsigned i = 0; i < _calls && !listing.empty(); ++i) {
        const std::string &name = listing[rng.nextBounded(listing.size())];
        const uint64_t pages = fs.fileSize(name).value() / kPageSize.value();
        const Bytes offset = kPageSize * (pages ? rng.nextBounded(pages) : 0);
        const int fd = fs.open(name);
        if (fd < 0) {
            ++_failures;
            continue;
        }
        read.push_back(
            timeCall([&] { fs.read(fd, offset, kProbeBytes); }));
        fs.close(fd);
    }

    // A slow-and-back round trip of a live knode's objects; none exist
    // when the policy runs without KLOC.
    std::vector<Knode *> knodes;
    for (const std::string &name : listing) {
        if (Knode *knode = fs.knodeOf(name))
            knodes.push_back(knode);
    }
    auto &migrate_knode = _samples["kloc.migrate_knode_us"];
    for (unsigned i = 0; i < _calls && !knodes.empty(); ++i) {
        Knode *knode = knodes[rng.nextBounded(knodes.size())];
        migrate_knode.push_back(timeCall([&] {
            sys.kloc().migrateKnodeObjects(knode, platform.slowTier());
            sys.kloc().migrateKnodeObjects(knode, platform.fastTier());
        }));
    }

    // Demote the cold end of the fast tier, one scan at a time.
    ScanResult scan;
    auto &lru_scan = _samples["mem.lru_scan_us"];
    auto &migrate = _samples["mem.migrate_us"];
    for (unsigned i = 0; i < _calls; ++i) {
        lru_scan.push_back(timeCall([&] {
            sys.lru().scanTier(platform.fastTier(), kScanFrames, scan);
        }));
        migrate.push_back(timeCall([&] {
            sys.migrator().migrate(scan.demoteCandidates, platform.slowTier());
        }));
    }

    // A whole connection: open, one packet each way, close.
    NetworkStack &net = sys.net();
    auto &conn = _samples["net.conn_us"];
    for (unsigned i = 0; i < _calls; ++i) {
        conn.push_back(timeCall([&] {
            const int sd = net.socket();
            net.deliver(sd, kProbeBytes);
            net.recv(sd, kProbeBytes);
            net.send(sd, kProbeBytes);
            net.closeSocket(sd);
        }));
    }
}

MetricValues
Prober::metrics() const
{
    MetricValues m;
    for (const std::string &probe : probeNames()) {
        const auto it = _samples.find(probe);
        const std::vector<double> none;
        const std::vector<double> &samples =
            it == _samples.end() ? none : it->second;
        m[probe + ".p50"] = quantile(samples, 0.50);
        m[probe + ".p99"] = quantile(samples, 0.99);
    }
    return m;
}

} // namespace kloc::perfbench
