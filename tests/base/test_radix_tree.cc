/**
 * @file
 * Radix tree tests: page-cache-style usage, tag propagation, gang
 * lookups, height growth/shrink, node-observer accounting, and a
 * property sweep against std::map.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/radix_tree.hh"
#include "base/rng.hh"

namespace kloc {
namespace {

// klint:allow(no-mutable-global): address-only sentinels, never written — the tree stores void*, which rules out const objects
int value_a = 1, value_b = 2, value_c = 3;

TEST(RadixTree, EmptyLookups)
{
    RadixTree tree;
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.lookup(0), nullptr);
    EXPECT_EQ(tree.lookup(~0ULL), nullptr);
    EXPECT_EQ(tree.erase(5), nullptr);
    EXPECT_EQ(tree.nodeCount(), 0u);
}

TEST(RadixTree, InsertLookupErase)
{
    RadixTree tree;
    EXPECT_TRUE(tree.insert(42, &value_a));
    EXPECT_EQ(tree.size(), 1u);
    EXPECT_EQ(tree.lookup(42), &value_a);
    EXPECT_EQ(tree.lookup(43), nullptr);
    EXPECT_EQ(tree.erase(42), &value_a);
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.nodeCount(), 0u) << "empty tree must free all nodes";
}

TEST(RadixTree, DuplicateInsertRejected)
{
    RadixTree tree;
    EXPECT_TRUE(tree.insert(7, &value_a));
    EXPECT_FALSE(tree.insert(7, &value_b));
    EXPECT_EQ(tree.lookup(7), &value_a);
}

TEST(RadixTree, LargeIndicesGrowHeight)
{
    RadixTree tree;
    EXPECT_TRUE(tree.insert(0, &value_a));
    EXPECT_TRUE(tree.insert(1ULL << 40, &value_b));
    EXPECT_TRUE(tree.insert(~0ULL, &value_c));
    EXPECT_EQ(tree.lookup(0), &value_a);
    EXPECT_EQ(tree.lookup(1ULL << 40), &value_b);
    EXPECT_EQ(tree.lookup(~0ULL), &value_c);
    EXPECT_EQ(tree.size(), 3u);
    // Erasing the deep entries shrinks the tree again.
    tree.erase(~0ULL);
    tree.erase(1ULL << 40);
    EXPECT_EQ(tree.lookup(0), &value_a);
}

TEST(RadixTree, DirtyTagPropagation)
{
    RadixTree tree;
    tree.insert(100, &value_a);
    tree.insert(200, &value_b);
    EXPECT_FALSE(tree.getTag(100, RadixTag::Dirty));
    tree.setTag(100, RadixTag::Dirty);
    EXPECT_TRUE(tree.getTag(100, RadixTag::Dirty));
    EXPECT_FALSE(tree.getTag(200, RadixTag::Dirty));
    // Tag lookup finds only the tagged slot.
    std::vector<std::pair<uint64_t, void *>> dirty;
    tree.gangLookupTag(0, 16, RadixTag::Dirty, dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].first, 100u);
    EXPECT_EQ(dirty[0].second, &value_a);
    tree.clearTag(100, RadixTag::Dirty);
    EXPECT_FALSE(tree.getTag(100, RadixTag::Dirty));
    tree.gangLookupTag(0, 16, RadixTag::Dirty, dirty);
    EXPECT_TRUE(dirty.empty());
}

TEST(RadixTree, TagClearedOnErase)
{
    RadixTree tree;
    tree.insert(5000, &value_a);
    tree.setTag(5000, RadixTag::Dirty);
    tree.erase(5000);
    tree.insert(5000, &value_b);
    EXPECT_FALSE(tree.getTag(5000, RadixTag::Dirty))
        << "stale tag survived erase";
}

TEST(RadixTree, TagsIndependent)
{
    RadixTree tree;
    tree.insert(1, &value_a);
    tree.setTag(1, RadixTag::Dirty);
    EXPECT_FALSE(tree.getTag(1, RadixTag::Towrite));
    tree.setTag(1, RadixTag::Towrite);
    tree.clearTag(1, RadixTag::Dirty);
    EXPECT_TRUE(tree.getTag(1, RadixTag::Towrite));
}

TEST(RadixTree, GangLookupOrdered)
{
    RadixTree tree;
    int values[10];
    const uint64_t indices[] = {3, 70, 65, 4096, 4097, 1, 100000};
    for (size_t i = 0; i < std::size(indices); ++i)
        tree.insert(indices[i], &values[i]);

    std::vector<std::pair<uint64_t, void *>> all;
    tree.gangLookup(0, 100, all);
    ASSERT_EQ(all.size(), std::size(indices));
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1].first, all[i].first) << "not index-ordered";

    std::vector<std::pair<uint64_t, void *>> from65;
    tree.gangLookup(65, 100, from65);
    ASSERT_EQ(from65.size(), 5u);
    EXPECT_EQ(from65.front().first, 65u);

    std::vector<std::pair<uint64_t, void *>> limited;
    tree.gangLookup(0, 3, limited);
    EXPECT_EQ(limited.size(), 3u);
}

TEST(RadixTree, GangLookupReturnsExpectedEntries)
{
    RadixTree tree;
    int values[8];
    const uint64_t indices[] = {2, 64, 66, 4095, 4096, 1ULL << 30};
    for (size_t i = 0; i < std::size(indices); ++i)
        tree.insert(indices[i], &values[i]);
    tree.setTag(66, RadixTag::Dirty);
    tree.setTag(4096, RadixTag::Dirty);

    std::vector<std::pair<uint64_t, void *>> out;
    tree.gangLookup(0, 100, out);
    std::vector<std::pair<uint64_t, void *>> expected;
    for (size_t i = 0; i < std::size(indices); ++i)
        expected.emplace_back(indices[i], &values[i]);
    EXPECT_EQ(out, expected);

    tree.gangLookupTag(0, 100, RadixTag::Dirty, out);
    expected = {{66, &values[2]}, {4096, &values[4]}};
    EXPECT_EQ(out, expected);
}

TEST(RadixTree, GangLookupOutParamClearsStaleContents)
{
    RadixTree tree;
    tree.insert(10, &value_a);
    std::vector<std::pair<uint64_t, void *>> out;
    out.emplace_back(999, &value_c);  // stale garbage from a prior use
    tree.gangLookup(0, 100, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, 10u);

    out.emplace_back(999, &value_c);
    tree.gangLookupTag(0, 100, RadixTag::Dirty, out);
    EXPECT_TRUE(out.empty()) << "untagged tree must yield nothing";
}

TEST(RadixTree, GangLookupOutParamIsAllocationFreeWhenWarm)
{
    RadixTree tree;
    int values[64];
    for (uint64_t i = 0; i < 64; ++i) {
        tree.insert(i * 3, &values[i]);
        tree.setTag(i * 3, RadixTag::Dirty);
    }
    std::vector<std::pair<uint64_t, void *>> out;
    tree.gangLookupTag(0, 64, RadixTag::Dirty, out);  // warm the buffer
    ASSERT_EQ(out.size(), 64u);
    const size_t warm_capacity = out.capacity();
    const auto *warm_data = out.data();
    for (int pass = 0; pass < 16; ++pass) {
        tree.gangLookupTag(0, 64, RadixTag::Dirty, out);
        EXPECT_EQ(out.capacity(), warm_capacity);
        EXPECT_EQ(out.data(), warm_data)
            << "warm gang lookup reallocated its buffer";
    }
}

TEST(RadixTree, NodeObserverBalances)
{
    RadixTree tree;
    int64_t live_nodes = 0;
    tree.setNodeObserver([&](bool created) {
        live_nodes += created ? 1 : -1;
    });
    for (uint64_t i = 0; i < 1000; ++i)
        tree.insert(i * 977, &value_a);
    EXPECT_EQ(static_cast<uint64_t>(live_nodes), tree.nodeCount());
    for (uint64_t i = 0; i < 1000; ++i)
        tree.erase(i * 977);
    EXPECT_EQ(live_nodes, 0);
    EXPECT_EQ(tree.nodeCount(), 0u);
}

TEST(RadixTree, ClearReleasesEverything)
{
    RadixTree tree;
    for (uint64_t i = 0; i < 500; ++i)
        tree.insert(i, &value_a);
    tree.clear();
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.nodeCount(), 0u);
    EXPECT_EQ(tree.lookup(10), nullptr);
    // Reusable after clear.
    EXPECT_TRUE(tree.insert(10, &value_b));
}

class RadixProperty : public ::testing::TestWithParam<int>
{};

TEST_P(RadixProperty, MatchesReferenceModel)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    RadixTree tree;
    std::map<uint64_t, void *> model;
    int slots[8] = {};  // address-only sentinels; locals stay run-private

    for (int step = 0; step < 6000; ++step) {
        // Mix of dense-low and sparse-high indices.
        uint64_t index = rng.nextBool(0.7)
            ? rng.nextBounded(2048)
            : rng.next() >> static_cast<unsigned>(rng.nextBounded(30));
        void *value = &slots[rng.nextBounded(8)];
        const double action = rng.nextDouble();
        if (action < 0.5) {
            const bool inserted = tree.insert(index, value);
            const bool expected = model.find(index) == model.end();
            ASSERT_EQ(inserted, expected);
            if (inserted)
                model[index] = value;
        } else if (action < 0.8) {
            auto it = model.find(index);
            ASSERT_EQ(tree.lookup(index),
                      it == model.end() ? nullptr : it->second);
        } else {
            auto it = model.find(index);
            void *erased = tree.erase(index);
            ASSERT_EQ(erased, it == model.end() ? nullptr : it->second);
            if (it != model.end())
                model.erase(it);
        }
        ASSERT_EQ(tree.size(), model.size());
    }
    // Gang lookup sweeps the whole key space in model order.
    uint64_t start = 0;
    auto model_it = model.begin();
    std::vector<std::pair<uint64_t, void *>> chunk;
    while (true) {
        tree.gangLookup(start, 64, chunk);
        if (chunk.empty())
            break;
        for (auto &[index, item] : chunk) {
            ASSERT_NE(model_it, model.end());
            EXPECT_EQ(index, model_it->first);
            EXPECT_EQ(item, model_it->second);
            ++model_it;
        }
        if (chunk.back().first == ~0ULL)
            break;
        start = chunk.back().first + 1;
    }
    EXPECT_EQ(model_it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 6666));

} // namespace
} // namespace kloc
