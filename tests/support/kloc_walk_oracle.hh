/**
 * @file
 * The reference KLOC walk: the batch migrateKnodeObjects() moves,
 * built the long way. It walks rbtree-cache then rbtree-slab (all in
 * rbtree-cache when the trees are not split), visits every member,
 * and takes each managed frame off the destination at its first
 * object. KlocManager::collectBatch must build the same batch from
 * the residency lists.
 */

#ifndef KLOC_TESTS_SUPPORT_KLOC_WALK_ORACLE_HH
#define KLOC_TESTS_SUPPORT_KLOC_WALK_ORACLE_HH

#include <unordered_set>
#include <vector>

#include "core/kloc_manager.hh"

namespace kloc {

/** The frames a full walk of @p knode's trees batches for @p dst. */
inline std::vector<Frame *>
treeWalkBatch(KlocManager &kloc, Knode *knode, TierId dst)
{
    std::unordered_set<Frame *> seen;
    std::vector<Frame *> batch;
    auto collect = [&](KernelObject *obj) {
        Frame *frame = obj->frame();
        if (frame && frame->tier != dst &&
            kloc.classManaged(frame->objClass) && seen.insert(frame).second) {
            batch.push_back(frame);
        }
    };
    kloc.forEachCacheObj(knode, collect);
    kloc.forEachSlabObj(knode, collect);
    return batch;
}

/** The frames KlocManager::collectBatch batches for @p dst. */
inline std::vector<Frame *>
listBatch(KlocManager &kloc, Knode *knode, TierId dst)
{
    std::vector<FrameRef> refs;
    kloc.collectBatch(knode, dst, refs);
    std::vector<Frame *> batch;
    for (const FrameRef &ref : refs)
        batch.push_back(ref.get());
    return batch;
}

} // namespace kloc

#endif // KLOC_TESTS_SUPPORT_KLOC_WALK_ORACLE_HH
