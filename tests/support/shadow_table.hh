/**
 * @file
 * The shadow side-table invariant, for tests' end-state checks:
 * TierManager holds a shadow record for exactly the live frames whose
 * shadowed flag is set, each record's block is allocated on its tier
 * (neither free nor backing a live frame), and shadowPages() is the
 * sum of the records' pages.
 */

#ifndef KLOC_TESTS_SUPPORT_SHADOW_TABLE_HH
#define KLOC_TESTS_SUPPORT_SHADOW_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mem/tier_manager.hh"

namespace kloc {

/** True when TierManager's shadow records match its live frames. */
inline bool
shadowTableMatchesFrames(TierManager &tiers)
{
    std::vector<const Frame *> shadowed;
    std::set<std::pair<int, uint64_t>> live_blocks;
    for (size_t i = 0; i < tiers.tierCount(); ++i) {
        const TierId id = static_cast<TierId>(i);
        for (const FrameRef &ref : tiers.collectFramesOn(id)) {
            live_blocks.emplace(id.value(), ref->pfn.value());
            if (ref->hasShadow())
                shadowed.push_back(ref.get());
        }
    }
    if (shadowed.size() != tiers.shadowRecords())
        return false;
    uint64_t pages = 0;
    for (const Frame *frame : shadowed) {
        const ShadowRecord *shadow = tiers.shadowOf(frame);
        if (shadow == nullptr || shadow->tier == frame->tier ||
            shadow->tier < 0 ||
            static_cast<size_t>(shadow->tier.value()) >= tiers.tierCount())
            return false;
        if (tiers.tier(shadow->tier).pageFree(shadow->pfn) ||
            live_blocks.count({shadow->tier.value(), shadow->pfn.value()}))
            return false;
        pages += frame->pages().value();
    }
    return pages == tiers.shadowPages();
}

} // namespace kloc

#endif // KLOC_TESTS_SUPPORT_SHADOW_TABLE_HH
