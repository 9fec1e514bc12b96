#include "base/stats.hh"

#include <sstream>

namespace kloc {

uint64_t
Histogram::percentileUpperBound(double fraction) const
{
    const uint64_t total = _dist.count();
    if (total == 0)
        return 0;
    const auto target = static_cast<uint64_t>(fraction * total);
    uint64_t seen = 0;
    for (unsigned bucket = 0; bucket < kBuckets; ++bucket) {
        seen += _buckets[bucket];
        if (seen >= target) {
            if (bucket == 0)
                return 0;
            // Bucket 64 spans up to UINT64_MAX; 1<<64 would overflow.
            return bucket >= 64 ? ~0ULL : (1ULL << bucket) - 1;
        }
    }
    return ~0ULL;
}

double
StatSet::get(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return _values.find(name) != _values.end();
}

std::string
StatSet::toString() const
{
    std::ostringstream out;
    for (const auto &[name, value] : _values)
        out << name << " " << value << "\n";
    return out.str();
}

} // namespace kloc
