#include "workload/varmail.hh"

#include "base/logging.hh"

namespace kloc {

std::string
VarmailWorkload::freshName()
{
    return "mail_" + std::to_string(_nextMailId++);
}

void
VarmailWorkload::setup(System &sys)
{
    growArena(sys, scaled(512 * kMiB) / kPageSize);
    // Seed the spool with an initial mail population.
    const uint64_t initial =
        scaled(_config.smallInput ? 2 * kGiB : 8 * kGiB) / kMailBytes;
    for (uint64_t i = 0; i < initial; ++i)
        deliverMail(sys);
}

void
VarmailWorkload::deliverMail(System &sys)
{
    const std::string name = freshName();
    const int fd = sys.fs().create(name);
    if (fd < 0)
        return;
    touchArena(sys, _nextMailId, kMailBytes, AccessType::Read);
    sys.fs().write(fd, Bytes{0}, kMailBytes);
    // varmail fsyncs each delivered message.
    sys.fs().fsync(fd);
    sys.fs().close(fd);
    _mailbox.push_back(name);
}

void
VarmailWorkload::readMail(System &sys)
{
    if (_mailbox.empty())
        return;
    const auto pick = _rng.nextBounded(_mailbox.size());
    const int fd = sys.fs().open(_mailbox[pick]);
    if (fd < 0)
        return;
    sys.fs().read(fd, Bytes{0}, kMailBytes);
    touchArena(sys, pick, kMailBytes, AccessType::Write);
    sys.fs().close(fd);
}

void
VarmailWorkload::deleteMail(System &sys)
{
    if (_mailbox.empty())
        return;
    const auto pick = _rng.nextBounded(_mailbox.size());
    if (sys.fs().unlink(_mailbox[pick])) {
        _mailbox[pick] = _mailbox.back();
        _mailbox.pop_back();
    }
}

WorkloadResult
VarmailWorkload::run(System &sys)
{
    WorkloadResult result;
    const Tick start = sys.machine().now();
    for (uint64_t op = 0; op < _config.operations; ++op) {
        rotateCpu(sys);
        const double action = _rng.nextDouble();
        if (action < 0.3) {
            deliverMail(sys);
        } else if (action < 0.7) {
            readMail(sys);
        } else if (action < 0.98) {
            // Balance deletes against delivery so the spool neither
            // explodes nor empties.
            deleteMail(sys);
            if (_rng.nextBool(0.25))
                deliverMail(sys);
        } else {
            // filebench's varmail personality has no readdir flowop;
            // this branch is the driver's own directory scan, the
            // only pressure on DirBuffer churn. It needs no names.
            sys.fs().readdirCount();
        }
        ++result.operations;
    }
    result.elapsed = sys.machine().now() - start;
    return result;
}

void
VarmailWorkload::teardown(System &sys)
{
    for (const auto &name : _mailbox)
        sys.fs().unlink(name);
    _mailbox.clear();
    Workload::teardown(sys);
}

} // namespace kloc
