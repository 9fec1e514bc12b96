/**
 * @file
 * Lightweight statistics facilities for the simulator.
 *
 * Subsystems own their counters directly (plain uint64_t members) and
 * export them through StatSet snapshots when experiments dump results.
 * Distribution accumulates min/max/mean; Histogram buckets samples in
 * powers of two, which is how lifetime distributions (Fig. 2d) are
 * reported on a log axis.
 */

#ifndef KLOC_BASE_STATS_HH
#define KLOC_BASE_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace kloc {

/** Running min/max/mean/count accumulator. */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(double value)
    {
        ++_count;
        _sum += value;
        if (value < _min)
            _min = value;
        if (value > _max)
            _max = value;
    }

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    /** Forget all samples. */
    void
    reset()
    {
        _count = 0;
        _sum = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    uint64_t _count = 0;
    double _sum = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Power-of-two bucketed histogram for non-negative samples. */
class Histogram
{
  public:
    // Bucket index is the sample's bit width (0..64), so values with
    // the top bit set (width 64) need their own bucket — 65 in all.
    static constexpr unsigned kBuckets = 65;

    /** Record one sample. */
    void
    sample(uint64_t value)
    {
        const unsigned bucket =
            value == 0 ? 0 : 64 - static_cast<unsigned>(
                                      __builtin_clzll(value));
        ++_buckets[bucket];
        _dist.sample(static_cast<double>(value));
    }

    /** Count of samples whose value's bit-width equals @p bucket. */
    uint64_t bucketCount(unsigned bucket) const { return _buckets[bucket]; }

    const Distribution &dist() const { return _dist; }

    /** Value below which @p fraction of samples fall (bucket upper bound). */
    uint64_t percentileUpperBound(double fraction) const;

  private:
    uint64_t _buckets[kBuckets] = {};
    Distribution _dist;
};

/** Named scalar snapshot used when dumping experiment results. */
class StatSet
{
  public:
    /** Record @p value under @p name (overwrites prior value). */
    void set(const std::string &name, double value) { _values[name] = value; }

    /** Value for @p name, or 0 when absent. */
    double get(const std::string &name) const;

    /** True when @p name has been recorded. */
    bool has(const std::string &name) const;

    const std::map<std::string, double> &values() const { return _values; }

    /** Render as "name value" lines for experiment logs. */
    std::string toString() const;

  private:
    std::map<std::string, double> _values;
};

} // namespace kloc

#endif // KLOC_BASE_STATS_HH
