/**
 * @file
 * Webserver-like driver (extension; motivated by the paper's Nginx
 * citation [8]): short-lived connections serving static files.
 *
 * Each request opens a fresh connection (socket create -> request ->
 * response -> close), resolves a file from a zipfian-popular corpus,
 * and streams it through the page cache. This is the harshest
 * socket-KLOC churn in the suite — every request creates and
 * destroys a whole socket KLOC — while the file side behaves like a
 * classic static-content cache.
 */

#ifndef KLOC_WORKLOAD_WEBSERVER_HH
#define KLOC_WORKLOAD_WEBSERVER_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** Nginx-like static-content server driver. */
class WebserverWorkload : public Workload
{
  public:
    static constexpr Bytes kRequestBytes{512};
    static constexpr Bytes kDocBytes = 64 * kKiB;
    /** Fraction of connections kept alive across requests. */
    static constexpr double kKeepAliveRate = 0.25;

    explicit WebserverWorkload(const WorkloadConfig &config);

    const char *name() const override { return "webserver"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    void serveRequest(System &sys, int sd, uint64_t doc);

    FdCache _fdCache;
    std::vector<std::string> _docs;
    std::vector<int> _keepAlive;
    std::unique_ptr<ZipfianGenerator> _zipf;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_WEBSERVER_HH
