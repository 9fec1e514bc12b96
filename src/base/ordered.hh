/**
 * @file
 * Deterministic iteration over unordered containers.
 *
 * Hash-map iteration order is an implementation detail: it varies
 * with load factor, insertion history and standard-library version.
 * Any loop over an unordered container that emits trace events,
 * touches simulated memory, or otherwise influences simulation order
 * silently ties run-to-run reproducibility to that detail.
 *
 * sortedSnapshot() is the sanctioned alternative: it copies the keys
 * out and sorts them, giving a stable iteration order at O(n log n)
 * cost. klint's `determinism` rule flags direct iteration (range-for
 * or .begin()) over unordered_map/unordered_set members outside
 * src/base/ — wrap the container in sortedSnapshot() or, for loops
 * that are provably order-independent reductions, add a
 * `// klint:allow(determinism): <why>` justification.
 *
 * The sort is paid on every call. A container walked in order on a
 * hot path should be an ordered one (std::map/std::set) instead, as
 * the filesystem's name table and dirty-inode set are.
 */

#ifndef KLOC_BASE_ORDERED_HH
#define KLOC_BASE_ORDERED_HH

#include <algorithm>
#include <vector>

namespace kloc {

/**
 * Keys of @p container, sorted ascending. Works for both
 * unordered_map (returns sorted keys) and unordered_set (returns
 * sorted elements). The keys must have a deterministic ordering —
 * do not use with pointer keys.
 */
template <class Container>
std::vector<typename Container::key_type>
sortedSnapshot(const Container &container)
{
    std::vector<typename Container::key_type> keys;
    keys.reserve(container.size());
    for (const auto &entry : container) {
        if constexpr (requires { typename Container::mapped_type; })
            keys.push_back(entry.first);
        else
            keys.push_back(entry);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace kloc

#endif // KLOC_BASE_ORDERED_HH
