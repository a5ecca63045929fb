// Protection-semantics tests: protect() returns coherent snapshots, blocks
// reclamation of the protected node, dup() transfers protection, and end_op
// releases it.  Scheme-specific behaviours are gated on kRobust.
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

template <class Smr>
class SmrProtectionTest : public ::testing::Test {};

TYPED_TEST_SUITE(SmrProtectionTest, test::AllSchemes);

TYPED_TEST(SmrProtectionTest, ProtectReturnsCurrentValue) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{5});
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  EXPECT_EQ(h.protect(src, 0), n);
  h.end_op();
  h.dealloc_unpublished(n);
}

TYPED_TEST(SmrProtectionTest, ProtectHandlesNullSource) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  std::atomic<ReclaimNode*> src{nullptr};
  h.begin_op();
  EXPECT_EQ(h.protect(src, 0), nullptr);
  EXPECT_TRUE(h.op_valid());
  h.end_op();
}

TYPED_TEST(SmrProtectionTest, ProtectWorksOnMarkedPointers) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{5});
  using MP = marked_ptr<TestNode>;
  std::atomic<MP> src{MP(n).with_mark()};
  h.begin_op();
  MP got = h.protect(src, 0);
  EXPECT_EQ(got.ptr(), n);
  EXPECT_TRUE(got.marked()) << "protect must return the raw marked value";
  h.end_op();
  h.dealloc_unpublished(n);
}

TYPED_TEST(SmrProtectionTest, ProtectedNodeSurvivesRetireChurn) {
  // The core SMR guarantee: while an operation holds a protection on a node
  // (robust schemes) or is inside its critical section (EBR), the node's
  // memory must survive arbitrary retire/scan churn by other threads.
  TypeParam smr(test::small_config(2));
  if constexpr (std::is_same_v<TypeParam, NoReclaimDomain>) {
    GTEST_SKIP() << "NR never reclaims; nothing to verify";
  } else {
    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    auto* victim = writer.template alloc<TestNode>(std::uint64_t{42});
    std::atomic<ReclaimNode*> src{victim};

    reader.begin_op();
    ReclaimNode* got = reader.protect(src, 0);
    ASSERT_EQ(got, victim);

    writer.retire(victim);
    test::churn_retire(writer, 3000);  // force many scans

    // The victim must not have been recycled: its payload and lifecycle
    // breadcrumb are intact (a freed cell would be kNodeFreed or reused).
    EXPECT_EQ(header_of(victim)->debug_state, kNodeRetired);
    EXPECT_EQ(static_cast<TestNode*>(got)->payload, 42u);
    reader.end_op();
  }
}

TYPED_TEST(SmrProtectionTest, ReleasedNodeIsEventuallyReclaimed) {
  TypeParam smr(test::small_config(2));
  if constexpr (std::is_same_v<TypeParam, NoReclaimDomain>) {
    GTEST_SKIP() << "NR never reclaims";
  } else {
    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    auto* victim = writer.template alloc<TestNode>(std::uint64_t{42});
    std::atomic<ReclaimNode*> src{victim};

    reader.begin_op();
    (void)reader.protect(src, 0);
    writer.retire(victim);
    reader.end_op();  // release

    // Force one reclamation pass without any further allocation, so the
    // victim's cell cannot be recycled before we inspect it.
    writer.scan();
    EXPECT_EQ(header_of(victim)->debug_state, kNodeFreed)
        << "after protection release the node must be reclaimable";
  }
}

TYPED_TEST(SmrProtectionTest, DupTransfersProtectionUpward) {
  // Protect in slot 0, dup to slot 3, then overwrite slot 0: the node must
  // stay protected through slot 3 (ascending-dup discipline, paper §3.2).
  TypeParam smr(test::small_config(2));
  if constexpr (!TypeParam::kRobust) {
    GTEST_SKIP() << "dup is only meaningful for slot/era-based schemes";
  } else {
    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    auto* victim = writer.template alloc<TestNode>(std::uint64_t{7});
    auto* other = writer.template alloc<TestNode>(std::uint64_t{8});
    std::atomic<ReclaimNode*> src{victim};
    std::atomic<ReclaimNode*> src2{other};

    reader.begin_op();
    (void)reader.protect(src, 0);
    reader.dup(0, 3);
    (void)reader.protect(src2, 0);  // overwrite slot 0

    writer.retire(victim);
    test::churn_retire(writer, 3000);
    EXPECT_EQ(header_of(victim)->debug_state, kNodeRetired)
        << "dup'd protection in slot 3 must keep the victim alive";
    reader.end_op();

    writer.retire(other);
  }
}

TYPED_TEST(SmrProtectionTest, MultipleIndependentSlots) {
  TypeParam smr(test::small_config(2));
  if constexpr (std::is_same_v<TypeParam, NoReclaimDomain>) {
    GTEST_SKIP();
  } else {
    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    TestNode* nodes[4];
    std::vector<std::atomic<ReclaimNode*>> srcs(4);
    reader.begin_op();
    for (int i = 0; i < 4; ++i) {
      nodes[i] = writer.template alloc<TestNode>(std::uint64_t(i));
      srcs[i].store(nodes[i]);
      (void)reader.protect(srcs[i], static_cast<unsigned>(i));
    }
    for (auto* n : nodes) writer.retire(n);
    test::churn_retire(writer, 3000);
    for (auto* n : nodes) {
      EXPECT_EQ(header_of(n)->debug_state, kNodeRetired);
    }
    reader.end_op();
  }
}

TYPED_TEST(SmrProtectionTest, OpValidDefaultsTrue) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  h.begin_op();
  EXPECT_TRUE(h.op_valid());
  h.revalidate_op();
  EXPECT_TRUE(h.op_valid());
  h.end_op();
}

}  // namespace
}  // namespace scot
