#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "perfbench.hh"

namespace kloc::perfbench {

namespace {

/** Entries of the pointer-chasing ring: 4 MiB, beyond the L2 cache. */
constexpr uint32_t kRingEntries = 1u << 20;
constexpr uint32_t kChaseSteps = 1u << 19;
/** Live entries of the ordered and hashed maps. */
constexpr uint32_t kLiveKeys = 1u << 12;
constexpr uint32_t kMapOps = 1u << 16;
constexpr uint32_t kSortKeys = 1u << 15;

uint32_t
lcg(uint32_t x)
{
    return x * 1664525u + 1013904223u;
}

/** One cycle through every entry, in a fixed pseudo-random order. */
std::vector<uint32_t>
makeRing()
{
    std::vector<uint32_t> order(kRingEntries);
    for (uint32_t i = 0; i < kRingEntries; ++i)
        order[i] = i;
    uint32_t x = 1;
    for (uint32_t i = kRingEntries - 1; i > 0; --i) {
        x = lcg(x);
        std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> ring(kRingEntries);
    for (uint32_t i = 0; i < kRingEntries; ++i)
        ring[order[i]] = order[(i + 1) % kRingEntries];
    return ring;
}

struct Item
{
    uint32_t key;
    uint32_t value;
};

} // namespace

double
calibrationSeconds()
{
    static const std::vector<uint32_t> ring = makeRing();
    const double start = threadCpuSeconds();
    uint64_t sum = 0;

    uint32_t at = 0;
    for (uint32_t i = 0; i < kChaseSteps; ++i) {
        at = ring[at];
        sum += at;
    }

    // Ordered and hashed maps with small heap objects, dispatched
    // through std::function, as the simulator's tables are.
    std::map<uint32_t, std::unique_ptr<Item>> tree;
    std::unordered_map<uint32_t, uint32_t> hash;
    const std::function<uint32_t(const Item &)> visit =
        [&sum](const Item &item) { return item.value ^ (sum & 1); };
    uint32_t key = 1;
    for (uint32_t i = 0; i < kMapOps; ++i) {
        key = lcg(key);
        const uint32_t k = (key >> 8) % (4 * kLiveKeys);
        tree[k] = std::make_unique<Item>(Item{k, i});
        hash[k] += i;
        if (tree.size() > kLiveKeys) {
            sum += visit(*tree.begin()->second);
            hash.erase(tree.begin()->first);
            tree.erase(tree.begin());
        }
    }
    sum += hash.size();

    std::vector<uint32_t> keys(ring.begin(), ring.begin() + kSortKeys);
    std::sort(keys.begin(), keys.end());
    sum += keys[kSortKeys / 2];

    const double seconds = threadCpuSeconds() - start;
    // Keeps the work from being optimised away.
    volatile uint64_t sink = sum;
    (void)sink;
    return seconds;
}

} // namespace kloc::perfbench
