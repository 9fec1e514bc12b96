/**
 * @file
 * The KLOC residency invariant, for tests' per-step and end-state
 * checks: each knode's residency lists hold exactly the objects of
 * its trees, every page object on the list of its frame's tier and
 * every slab object on the slab list, in objId order.
 */

#ifndef KLOC_TESTS_SUPPORT_KLOC_RESIDENCY_HH
#define KLOC_TESTS_SUPPORT_KLOC_RESIDENCY_HH

#include <cstddef>
#include <string>

#include "core/kloc_manager.hh"

namespace kloc {

/**
 * Recount @p knode's residency from its trees.
 * @return an empty string when the lists match, else what differs.
 */
inline std::string
knodeResidencyError(Knode &knode)
{
    const std::string where = "knode " + std::to_string(knode.id) + ": ";
    size_t listed = 0;
    for (size_t t = 0; t < Knode::kMaxTiers; ++t) {
        for (KernelObject *obj : knode.pagesOn[t]) {
            ++listed;
            if (obj->knode != &knode || !obj->knodeHook.linked())
                return where + "untracked object on a page list";
            if (obj->page() == nullptr)
                return where + "slab object on a page list";
            if (obj->frame()->tier != static_cast<TierId>(t))
                return where + "object " + std::to_string(obj->objId) +
                       " listed on tier " + std::to_string(t) +
                       ", frame on tier " +
                       std::to_string(obj->frame()->tier.value());
        }
    }
    uint32_t last_id = 0;
    for (KernelObject *obj : knode.slabObjs) {
        ++listed;
        if (obj->knode != &knode || !obj->knodeHook.linked())
            return where + "untracked object on the slab list";
        if (obj->page() != nullptr)
            return where + "page object on the slab list";
        if (obj->objId <= last_id)
            return where + "slab list out of objId order";
        last_id = obj->objId;
    }
    // Every listed object is a member, and each object has one hook:
    // equal counts mean the lists hold every member.
    if (listed != knode.objectCount())
        return where + std::to_string(listed) + " listed, " +
               std::to_string(knode.objectCount()) + " in the trees";
    return {};
}

/** knodeResidencyError over every live knode of @p kloc. */
inline std::string
klocResidencyError(KlocManager &kloc)
{
    std::string error;
    kloc.forEachKnode([&error](Knode *knode) {
        if (error.empty())
            error = knodeResidencyError(*knode);
    });
    return error;
}

} // namespace kloc

#endif // KLOC_TESTS_SUPPORT_KLOC_RESIDENCY_HH
