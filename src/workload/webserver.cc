#include "workload/webserver.hh"

#include "base/logging.hh"

namespace kloc {

WebserverWorkload::WebserverWorkload(const WorkloadConfig &config)
    : Workload(config), _fdCache(64)
{
}

void
WebserverWorkload::setup(System &sys)
{
    // Worker-process buffers.
    growArena(sys, scaled(1 * kGiB) / kPageSize);
    // Static document corpus.
    const Bytes corpus =
        scaled(_config.smallInput ? 4 * kGiB : 16 * kGiB);
    const uint64_t docs = corpus / kDocBytes;
    for (uint64_t i = 0; i < docs; ++i) {
        const std::string name = "doc_" + std::to_string(i);
        const int fd = sys.fs().create(name);
        KLOC_ASSERT(fd >= 0, "corpus file exists");
        sys.fs().write(fd, Bytes{0}, kDocBytes);
        sys.fs().close(fd);
        _docs.push_back(name);
    }
    _zipf = std::make_unique<ZipfianGenerator>(_docs.size(), 0.9,
                                               _config.seed ^ 0x8080);
}

void
WebserverWorkload::serveRequest(System &sys, int sd, uint64_t doc)
{
    // Request in.
    sys.net().deliver(sd, kRequestBytes);
    if (!sys.net().poll(sd))
        return;
    sys.net().recv(sd, kRequestBytes);
    // Serve the file through the page cache (sendfile-style).
    const int fd = _fdCache.get(sys, _docs[doc]);
    if (fd >= 0)
        sys.fs().read(fd, Bytes{0}, kDocBytes);
    touchArena(sys, doc, 2 * kKiB, AccessType::Write);  // headers
    sys.net().send(sd, kDocBytes + Bytes{512});
}

WorkloadResult
WebserverWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const uint64_t doc = _zipf->next();
        if (!_keepAlive.empty() && _rng.nextBool(kKeepAliveRate)) {
            // Reuse a kept-alive connection.
            const auto pick = _rng.nextBounded(_keepAlive.size());
            serveRequest(sys, _keepAlive[pick], doc);
        } else {
            // Fresh connection: a whole socket KLOC is born and,
            // usually, dies within one request.
            const int sd = sys.net().socket();
            serveRequest(sys, sd, doc);
            if (_keepAlive.size() < 32 && _rng.nextBool(0.3)) {
                _keepAlive.push_back(sd);
            } else {
                sys.net().closeSocket(sd);
            }
        }
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
WebserverWorkload::teardown(System &sys)
{
    for (const int sd : _keepAlive)
        sys.net().closeSocket(sd);
    _keepAlive.clear();
    _fdCache.clear(sys);
    for (const auto &name : _docs)
        sys.fs().unlink(name);
    _docs.clear();
    Workload::teardown(sys);
}

} // namespace kloc
