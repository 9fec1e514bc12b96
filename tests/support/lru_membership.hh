/**
 * @file
 * The LRU membership invariant, for tests' end-state checks: every
 * live frame sits on its own tier's active or inactive list, and no
 * freed frame sits on any.
 */

#ifndef KLOC_TESTS_SUPPORT_LRU_MEMBERSHIP_HH
#define KLOC_TESTS_SUPPORT_LRU_MEMBERSHIP_HH

#include <cstddef>

#include "mem/tier_manager.hh"

namespace kloc {

/** True when each tier's two LRU lists hold as many frames as are
 *  live on that tier. */
inline bool
lruListsHoldLiveFrames(TierManager &tiers)
{
    for (size_t i = 0; i < tiers.tierCount(); ++i) {
        const TierId id = static_cast<TierId>(i);
        Tier &tier = tiers.tier(id);
        if (tier.activeList().size() + tier.inactiveList().size() !=
            tiers.collectFramesOn(id).size()) {
            return false;
        }
    }
    return true;
}

} // namespace kloc

#endif // KLOC_TESTS_SUPPORT_LRU_MEMBERSHIP_HH
