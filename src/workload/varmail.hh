/**
 * @file
 * Varmail-like driver (extension beyond the paper's Table 3, after
 * filebench's varmail personality): a mail-server file churn —
 * create/append/fsync, whole-file reads, deletes, and directory
 * scans over a large population of small files.
 *
 * This is the most metadata-intensive driver in the suite: inode,
 * dentry, journal, and directory-buffer churn dominates, making it a
 * stress test for KLOC's knode lifecycle (every op creates or
 * destroys whole KLOCs).
 */

#ifndef KLOC_WORKLOAD_VARMAIL_HH
#define KLOC_WORKLOAD_VARMAIL_HH

#include <string>
#include <vector>

#include "workload/workload.hh"

namespace kloc {

/** Varmail-like mail-server file churn driver. */
class VarmailWorkload : public Workload
{
  public:
    static constexpr Bytes kMailBytes = 8 * kKiB;

    explicit VarmailWorkload(const WorkloadConfig &config)
        : Workload(config)
    {}

    const char *name() const override { return "varmail"; }

    void setup(System &sys) override;
    WorkloadResult run(System &sys) override;
    void teardown(System &sys) override;

  private:
    std::string freshName();
    void deliverMail(System &sys);
    void readMail(System &sys);
    void deleteMail(System &sys);

    uint64_t _nextMailId = 0;
    std::vector<std::string> _mailbox;
};

} // namespace kloc

#endif // KLOC_WORKLOAD_VARMAIL_HH
