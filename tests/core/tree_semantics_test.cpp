// Sequential semantics and structural invariants of the SCOT
// Natarajan-Mittal tree, typed over all SMR schemes.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class TreeSemanticsTest : public ::testing::Test {};

TYPED_TEST_SUITE(TreeSemanticsTest, test::AllSchemes);

TYPED_TEST(TreeSemanticsTest, EmptyTreeBehaviour) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_FALSE(tree.contains(h, 0));
  EXPECT_FALSE(tree.erase(h, 0));
  EXPECT_FALSE(tree.get(h, 5).has_value());
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_TRUE(tree.check_structure_unsafe());
}

TYPED_TEST(TreeSemanticsTest, InsertFindEraseSingle) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_TRUE(tree.insert(h, 10, 100));
  EXPECT_TRUE(tree.contains(h, 10));
  EXPECT_EQ(tree.get(h, 10).value_or(0), 100u);
  EXPECT_FALSE(tree.insert(h, 10, 200)) << "duplicate";
  EXPECT_EQ(tree.get(h, 10).value_or(0), 100u) << "duplicate keeps old value";
  EXPECT_TRUE(tree.erase(h, 10));
  EXPECT_FALSE(tree.erase(h, 10));
  EXPECT_FALSE(tree.contains(h, 10));
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_TRUE(tree.check_structure_unsafe());
}

TYPED_TEST(TreeSemanticsTest, ManyKeysAscending) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 300; ++k) ASSERT_TRUE(tree.insert(h, k, k * 2));
  EXPECT_EQ(tree.size_unsafe(), 300u);
  EXPECT_TRUE(tree.check_structure_unsafe());
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.contains(h, k)) << k;
    ASSERT_EQ(tree.get(h, k).value_or(~0ull), k * 2);
  }
  EXPECT_FALSE(tree.contains(h, 300));
}

TYPED_TEST(TreeSemanticsTest, ManyKeysDescendingThenEraseAll) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 300; k-- > 0;) ASSERT_TRUE(tree.insert(h, k, k));
  for (Key k = 0; k < 300; ++k) ASSERT_TRUE(tree.erase(h, k)) << k;
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_TRUE(tree.check_structure_unsafe());
  // Tree is reusable after full drain.
  EXPECT_TRUE(tree.insert(h, 42, 0));
  EXPECT_TRUE(tree.contains(h, 42));
}

TYPED_TEST(TreeSemanticsTest, RandomInsertEraseMirrorsReferenceSet) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  std::set<Key> ref;
  Xoshiro256 rng(2026);
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.next_in(200);
    if (rng.next_in(2)) {
      EXPECT_EQ(tree.insert(h, k, k), ref.insert(k).second) << "step " << i;
    } else {
      EXPECT_EQ(tree.erase(h, k), ref.erase(k) == 1) << "step " << i;
    }
  }
  EXPECT_EQ(tree.size_unsafe(), ref.size());
  for (Key k = 0; k < 200; ++k) {
    EXPECT_EQ(tree.contains(h, k), ref.count(k) == 1) << k;
  }
  EXPECT_TRUE(tree.check_structure_unsafe());
}

TYPED_TEST(TreeSemanticsTest, BoundaryKeys) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  const Key hi = std::numeric_limits<Key>::max();
  EXPECT_TRUE(tree.insert(h, 0, 1));
  EXPECT_TRUE(tree.insert(h, hi, 2));
  EXPECT_TRUE(tree.contains(h, 0));
  EXPECT_TRUE(tree.contains(h, hi))
      << "max key must not collide with the sentinel infinities";
  EXPECT_TRUE(tree.erase(h, hi));
  EXPECT_TRUE(tree.contains(h, 0));
  EXPECT_TRUE(tree.erase(h, 0));
}

TYPED_TEST(TreeSemanticsTest, EraseLeftAndRightChildren) {
  // Deleting a leaf removes its parent and promotes the sibling: exercise
  // both sibling orientations explicitly.
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  ASSERT_TRUE(tree.insert(h, 50, 0));
  ASSERT_TRUE(tree.insert(h, 25, 0));  // left of 50
  ASSERT_TRUE(tree.insert(h, 75, 0));  // right of 50
  EXPECT_TRUE(tree.erase(h, 25));      // promotes right sibling upward
  EXPECT_TRUE(tree.contains(h, 50));
  EXPECT_TRUE(tree.contains(h, 75));
  EXPECT_TRUE(tree.check_structure_unsafe());
  EXPECT_TRUE(tree.erase(h, 75));  // promotes left sibling upward
  EXPECT_TRUE(tree.contains(h, 50));
  EXPECT_EQ(tree.size_unsafe(), 1u);
  EXPECT_TRUE(tree.check_structure_unsafe());
}

TYPED_TEST(TreeSemanticsTest, DeletionsRetireParentAndLeaf) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  ASSERT_TRUE(tree.insert(h, 1, 0));
  ASSERT_TRUE(tree.insert(h, 2, 0));
  const std::int64_t before = smr.pending_nodes();
  ASSERT_TRUE(tree.erase(h, 1));
  EXPECT_EQ(smr.pending_nodes(), before + 2)
      << "a delete must retire exactly the leaf and its parent";
}

TYPED_TEST(TreeSemanticsTest, CustomComparator) {
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam, std::greater<Key>> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k : {5ull, 1ull, 9ull, 3ull}) ASSERT_TRUE(tree.insert(h, k, k));
  EXPECT_FALSE(tree.insert(h, 9, 0));
  EXPECT_TRUE(tree.erase(h, 3));
  EXPECT_TRUE(tree.contains(h, 5));
  EXPECT_TRUE(tree.contains(h, 1));
  EXPECT_EQ(tree.size_unsafe(), 3u);
}

TYPED_TEST(TreeSemanticsTest, ExtremeKeysUnderReversedOrder) {
  // The sentinel leaves carry Key{} (0), which std::greater ranks last;
  // they are told apart by address, so 0 and max are ordinary keys.
  TypeParam smr(test::small_config());
  NatarajanMittalTree<Key, Val, TypeParam, std::greater<Key>> tree(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  const Key hi = std::numeric_limits<Key>::max();
  EXPECT_FALSE(tree.contains(h, 0));
  EXPECT_FALSE(tree.erase(h, 0));
  EXPECT_TRUE(tree.insert(h, 0, 1));
  EXPECT_TRUE(tree.check_structure_unsafe());
  EXPECT_TRUE(tree.insert(h, hi, 2));
  EXPECT_TRUE(tree.check_structure_unsafe());
  EXPECT_FALSE(tree.insert(h, 0, 3));
  EXPECT_EQ(tree.get(h, 0).value_or(0), 1u);
  EXPECT_EQ(tree.get(h, hi).value_or(0), 2u);
  EXPECT_EQ(tree.size_unsafe(), 2u);
  EXPECT_TRUE(tree.erase(h, 0));
  EXPECT_TRUE(tree.check_structure_unsafe());
  EXPECT_FALSE(tree.contains(h, 0));
  EXPECT_TRUE(tree.contains(h, hi));
  EXPECT_TRUE(tree.erase(h, hi));
  EXPECT_TRUE(tree.check_structure_unsafe());
  EXPECT_EQ(tree.size_unsafe(), 0u);
}

// The tree's traversal uses six protection slots; a domain that gives each
// handle fewer must be refused at construction instead of letting HP index
// past its slot array.
TEST(TreeSlotRequirement, RefusesADomainWithTooFewSlots) {
  using Tree = NatarajanMittalTree<Key, Val, HpDomain>;
  auto cfg = test::small_config();
  cfg.slots_per_thread = 4;
  HpDomain narrow(cfg);
  EXPECT_THROW(Tree{narrow}, std::invalid_argument);
  cfg.slots_per_thread = Tree::kSlotsRequired;
  HpDomain exact(cfg);
  EXPECT_NO_THROW(Tree{exact});
}

}  // namespace
}  // namespace scot
