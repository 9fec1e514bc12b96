#include "base/radix_tree.hh"

#include <cstring>

#include "base/logging.hh"

namespace kloc {

/**
 * Interior node: 64 slots which hold either child Node* (when
 * shift > 0) or user items (when shift == 0), plus per-tag bitmaps.
 */
struct RadixTree::Node
{
    void *slots[kMapSize] = {};
    uint64_t tags[kTagCount] = {};
    Node *parent = nullptr;
    unsigned offset = 0;  // slot index within parent
    unsigned shift = 0;   // bits below this level
    unsigned count = 0;   // occupied slots

    bool
    tagSet(unsigned slot, unsigned tag) const
    {
        return tags[tag] & (1ULL << slot);
    }

    bool anyTag(unsigned tag) const { return tags[tag] != 0; }
};

RadixTree::~RadixTree()
{
    clear();
}

RadixTree::Node *
RadixTree::allocNode(Node *parent, unsigned offset, unsigned shift)
{
    auto *node = new Node();
    node->parent = parent;
    node->offset = offset;
    node->shift = shift;
    ++_nodes;
    if (_observer)
        _observer(true);
    return node;
}

void
RadixTree::freeNode(Node *node)
{
    --_nodes;
    if (_observer)
        _observer(false);
    delete node;
}

void
RadixTree::extendHeight(uint64_t index)
{
    // Grow the tree until the root covers @p index.
    auto covered = [&](unsigned height) {
        if (height >= 11)
            return true;  // 11 * 6 = 66 bits > 64
        return (index >> (height * kMapShift)) == 0;
    };
    if (_height == 0) {
        unsigned height = 1;
        while (!covered(height))
            ++height;
        _root = allocNode(nullptr, 0, (height - 1) * kMapShift);
        _height = height;
        return;
    }
    while (!covered(_height)) {
        Node *new_root = allocNode(nullptr, 0, _height * kMapShift);
        new_root->slots[0] = _root;
        new_root->count = 1;
        for (unsigned tag = 0; tag < kTagCount; ++tag) {
            if (_root->anyTag(tag))
                new_root->tags[tag] |= 1ULL;
        }
        _root->parent = new_root;
        _root->offset = 0;
        _root = new_root;
        ++_height;
    }
}

bool
RadixTree::insert(uint64_t index, void *item)
{
    KLOC_ASSERT(item != nullptr, "radix tree cannot store nullptr");
    extendHeight(index);

    Node *node = _root;
    while (node->shift > 0) {
        ++_visited;
        const unsigned slot =
            (index >> node->shift) & (kMapSize - 1);
        auto *child = static_cast<Node *>(node->slots[slot]);
        if (!child) {
            child = allocNode(node, slot, node->shift - kMapShift);
            node->slots[slot] = child;
            ++node->count;
        }
        node = child;
    }
    const unsigned slot = index & (kMapSize - 1);
    if (node->slots[slot])
        return false;
    node->slots[slot] = item;
    ++node->count;
    ++_count;
    return true;
}

RadixTree::Node *
RadixTree::descend(uint64_t index) const
{
    if (_height == 0)
        return nullptr;
    // Out of the root's range?
    if (_height < 11 && (index >> (_height * kMapShift)) != 0)
        return nullptr;
    Node *node = _root;
    while (node && node->shift > 0) {
        ++_visited;
        const unsigned slot = (index >> node->shift) & (kMapSize - 1);
        node = static_cast<Node *>(node->slots[slot]);
    }
    return node;
}

void *
RadixTree::lookup(uint64_t index) const
{
    Node *leaf = descend(index);
    if (!leaf)
        return nullptr;
    return leaf->slots[index & (kMapSize - 1)];
}

void
RadixTree::shrinkAfterErase(Node *leaf)
{
    // Free nodes that became empty, walking toward the root.
    Node *node = leaf;
    while (node && node->count == 0) {
        Node *parent = node->parent;
        if (parent) {
            parent->slots[node->offset] = nullptr;
            --parent->count;
            for (unsigned tag = 0; tag < kTagCount; ++tag)
                parent->tags[tag] &= ~(1ULL << node->offset);
        } else {
            _root = nullptr;
            _height = 0;
        }
        freeNode(node);
        node = parent;
    }
    // Collapse a chain of single-child roots pointing at slot 0.
    while (_root && _root->shift > 0 && _root->count == 1 &&
           _root->slots[0]) {
        auto *child = static_cast<Node *>(_root->slots[0]);
        child->parent = nullptr;
        child->offset = 0;
        freeNode(_root);
        _root = child;
        --_height;
    }
}

void *
RadixTree::erase(uint64_t index)
{
    Node *leaf = descend(index);
    if (!leaf)
        return nullptr;
    const unsigned slot = index & (kMapSize - 1);
    void *item = leaf->slots[slot];
    if (!item)
        return nullptr;
    leaf->slots[slot] = nullptr;
    --leaf->count;
    --_count;
    for (unsigned tag = 0; tag < kTagCount; ++tag) {
        if (leaf->tagSet(slot, tag)) {
            leaf->tags[tag] &= ~(1ULL << slot);
            clearTagUp(leaf, slot, static_cast<RadixTag>(tag));
        }
    }
    shrinkAfterErase(leaf);
    return item;
}

void
RadixTree::propagateTagUp(Node *node, unsigned offset, RadixTag tag)
{
    const unsigned t = static_cast<unsigned>(tag);
    while (node) {
        node->tags[t] |= 1ULL << offset;
        offset = node->offset;
        node = node->parent;
    }
}

void
RadixTree::clearTagUp(Node *node, unsigned offset, RadixTag tag)
{
    // Clear the parent's summary bit while no sibling carries the tag.
    const unsigned t = static_cast<unsigned>(tag);
    (void)offset;
    Node *walk = node->parent;
    unsigned child_offset = node->offset;
    Node *child = node;
    while (walk && !child->anyTag(t)) {
        walk->tags[t] &= ~(1ULL << child_offset);
        child = walk;
        child_offset = walk->offset;
        walk = walk->parent;
    }
}

void
RadixTree::setTag(uint64_t index, RadixTag tag)
{
    Node *leaf = descend(index);
    if (!leaf)
        return;
    const unsigned slot = index & (kMapSize - 1);
    if (!leaf->slots[slot])
        return;
    propagateTagUp(leaf, slot, tag);
}

void
RadixTree::clearTag(uint64_t index, RadixTag tag)
{
    Node *leaf = descend(index);
    if (!leaf)
        return;
    const unsigned slot = index & (kMapSize - 1);
    const unsigned t = static_cast<unsigned>(tag);
    if (!leaf->tagSet(slot, t))
        return;
    leaf->tags[t] &= ~(1ULL << slot);
    clearTagUp(leaf, slot, tag);
}

bool
RadixTree::getTag(uint64_t index, RadixTag tag) const
{
    Node *leaf = descend(index);
    if (!leaf)
        return false;
    const unsigned slot = index & (kMapSize - 1);
    return leaf->tagSet(slot, static_cast<unsigned>(tag));
}

void
RadixTree::gangWalk(const Node *node, uint64_t base, uint64_t start,
                    unsigned max_items, int tag_or_neg,
                    std::vector<std::pair<uint64_t, void *>> &out) const
{
    if (!node || out.size() >= max_items)
        return;
    for (unsigned slot = 0; slot < kMapSize; ++slot) {
        if (out.size() >= max_items)
            return;
        if (!node->slots[slot])
            continue;
        if (tag_or_neg >= 0 &&
            !node->tagSet(slot, static_cast<unsigned>(tag_or_neg))) {
            continue;
        }
        const uint64_t child_base =
            base | (static_cast<uint64_t>(slot) << node->shift);
        // Skip subtrees entirely below the start index.
        const uint64_t child_max =
            child_base + ((node->shift ? (1ULL << node->shift) : 1) - 1);
        if (child_max < start)
            continue;
        if (node->shift == 0) {
            if (child_base >= start)
                out.emplace_back(child_base, node->slots[slot]);
        } else {
            gangWalk(static_cast<const Node *>(node->slots[slot]),
                     child_base, start, max_items, tag_or_neg, out);
        }
    }
}

void
RadixTree::gangLookup(uint64_t start, unsigned max_items,
                      std::vector<std::pair<uint64_t, void *>> &out) const
{
    out.clear();
    gangWalk(_root, 0, start, max_items, -1, out);
}

void
RadixTree::gangLookupTag(uint64_t start, unsigned max_items, RadixTag tag,
                         std::vector<std::pair<uint64_t, void *>> &out) const
{
    out.clear();
    gangWalk(_root, 0, start, max_items, static_cast<int>(tag), out);
}

void
RadixTree::destroySubtree(Node *node)
{
    if (!node)
        return;
    if (node->shift > 0) {
        for (auto *slot : node->slots) {
            if (slot)
                destroySubtree(static_cast<Node *>(slot));
        }
    }
    freeNode(node);
}

void
RadixTree::clear()
{
    destroySubtree(_root);
    _root = nullptr;
    _height = 0;
    _count = 0;
}

} // namespace kloc
