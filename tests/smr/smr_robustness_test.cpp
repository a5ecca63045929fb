// Robustness property (the paper's (A)): a stalled thread must not cause
// unbounded memory growth under the robust schemes (HP/HPopt/HE/IBR/HLN),
// while EBR — by design — grows without bound until the stalled thread
// resumes.  This is the behavioural split that motivates the whole paper.
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

template <class Smr>
class SmrRobustnessTest : public ::testing::Test {};

TYPED_TEST_SUITE(SmrRobustnessTest, test::ReclaimingSchemes);

// A stalled reader: opens an operation, protects one old node, then stops
// participating while a writer churns through fresh allocate/retire cycles.
template <class Smr>
std::int64_t pending_after_stalled_churn(Smr& smr, int churn) {
  auto stalled_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& stalled = stalled_h.get();
  auto& writer = writer_h.get();
  auto* old_node = writer.template alloc<TestNode>(std::uint64_t{1});
  std::atomic<ReclaimNode*> src{old_node};
  stalled.begin_op();
  (void)stalled.protect(src, 0);
  writer.retire(old_node);
  test::churn_retire(writer, churn);
  const std::int64_t pending = smr.pending_nodes();
  stalled.end_op();
  return pending;
}

TYPED_TEST(SmrRobustnessTest, StalledThreadBoundsGarbageIffRobust) {
  TypeParam smr(test::small_config(2));
  const int kChurn = test::scaled_iters(20000);
  const std::int64_t pending = pending_after_stalled_churn(smr, kChurn);
  if constexpr (TypeParam::kRobust) {
    // Theorem 1 flavour: H*N protected + N*R limbo slack + batch slack.
    EXPECT_LT(pending, 2048)
        << TypeParam::kName << " claims robustness but garbage grew";
  } else {
    EXPECT_GT(pending, kChurn / 2)
        << "EBR with a stalled reader should accumulate almost all retires";
  }
}

TYPED_TEST(SmrRobustnessTest, ResumedThreadUnblocksReclamation) {
  TypeParam smr(test::small_config(2));
  (void)pending_after_stalled_churn(smr, test::scaled_iters(20000));
  // (end_op() happens inside pending_after_stalled_churn.)
  auto writer_h = scoped_handle(smr);
  test::churn_retire(writer_h.get(), 4000);  // new scans after the stall
  EXPECT_LT(smr.pending_nodes(), 2048)
      << "all schemes must recover once the stalled thread resumes";
}

TYPED_TEST(SmrRobustnessTest, RepeatedStallsStayBounded) {
  if constexpr (!TypeParam::kRobust) {
    GTEST_SKIP() << "EBR is expected to be unbounded here";
  } else {
    TypeParam smr(test::small_config(2));
    for (int round = 0; round < 5; ++round) {
      const std::int64_t pending = pending_after_stalled_churn(smr, 5000);
      EXPECT_LT(pending, 2048) << "round " << round;
    }
  }
}

TYPED_TEST(SmrRobustnessTest, ManyStalledReadersStillBounded) {
  if constexpr (!TypeParam::kRobust) {
    GTEST_SKIP();
  } else {
    TypeParam smr(test::small_config(4));
    auto writer_h = scoped_handle(smr);
    auto& writer = writer_h.get();
    std::vector<TestNode*> victims;
    std::vector<std::unique_ptr<std::atomic<ReclaimNode*>>> srcs;
    std::vector<ScopedHandle<TypeParam>> readers;
    for (unsigned t = 0; t < 3; ++t) {
      auto* v = writer.template alloc<TestNode>(std::uint64_t{t});
      victims.push_back(v);
      srcs.push_back(std::make_unique<std::atomic<ReclaimNode*>>(v));
      readers.push_back(scoped_handle(smr));
      readers.back()->begin_op();
      (void)readers.back()->protect(*srcs.back(), 0);
    }
    for (auto* v : victims) writer.retire(v);
    test::churn_retire(writer, test::scaled_iters(20000));
    EXPECT_LT(smr.pending_nodes(), 4096);
    for (auto* v : victims) {
      EXPECT_EQ(header_of(v)->debug_state, kNodeRetired)
          << "victims remain protected";
    }
    for (auto& r : readers) r->end_op();
  }
}

}  // namespace
}  // namespace scot
