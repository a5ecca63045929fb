// Hyaline-1S-specific mechanics: batch formation, distributed reference
// counting, any-thread reclamation, and the birth-era restart signal that
// SCOT structures poll through op_valid().
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

TEST(Hyaline, BatchSealsAtCapacity) {
  auto cfg = test::small_config(2);
  HyalineDomain smr(cfg);
  EXPECT_EQ(smr.batch_capacity(), 3u);  // max_threads + 1
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  // Below capacity: nodes accumulate in the open batch, nothing freed.
  for (int i = 0; i < 2; ++i) {
    auto* n = h.template alloc<TestNode>(std::uint64_t(i));
    h.retire(n);
  }
  EXPECT_EQ(h.pending_batch_size(), 2u);
  EXPECT_EQ(smr.stats().reclaimed_total, 0u);
  // Capacity reached: with no active slots the batch frees immediately.
  auto* n = h.template alloc<TestNode>(std::uint64_t{2});
  h.retire(n);
  EXPECT_EQ(h.pending_batch_size(), 0u);
  EXPECT_EQ(smr.stats().reclaimed_total, 3u);
}

TEST(Hyaline, ActiveSlotHoldsBatchUntilLeave) {
  auto cfg = test::small_config(2);
  HyalineDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  reader.begin_op();
  TestNode* nodes[3];
  for (auto*& p : nodes) {
    p = writer.template alloc<TestNode>(std::uint64_t{9});
    writer.retire(p);
  }
  EXPECT_EQ(smr.stats().reclaimed_total, 0u)
      << "batch must stay alive while the reader's slot is active";
  for (auto* p : nodes) EXPECT_EQ(p->debug_state, kNodeRetired);
  reader.end_op();  // drain the slot: last reference drops here
  EXPECT_EQ(smr.stats().reclaimed_total, 3u)
      << "leave() performs the reclamation (any-thread property)";
  for (auto* p : nodes) EXPECT_EQ(p->debug_state, kNodeFreed);
}

TEST(Hyaline, YoungNodeTriggersRestartSignal) {
  // The "1S" rule: a thread must not dereference a node born after its
  // published era.  protect() refreshes the reservation and raises the
  // restart flag that data structures poll via op_valid().
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;  // every allocation advances the era
  HyalineDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();

  reader.begin_op();
  const std::uint64_t era_before = reader.reservation_era();
  // Writer allocates "young" nodes, pushing the global era past the
  // reader's reservation.
  auto* young = writer.template alloc<TestNode>(std::uint64_t{1});
  ASSERT_GT(birth_era_of(young), era_before);

  std::atomic<ReclaimNode*> src{young};
  EXPECT_TRUE(reader.op_valid());
  ReclaimNode* got = reader.protect(src, 0);
  EXPECT_EQ(got, young) << "protect still returns the loaded value";
  EXPECT_FALSE(reader.op_valid()) << "young node must raise the restart flag";
  EXPECT_GE(reader.reservation_era(), birth_era_of(young))
      << "the reservation must have been refreshed";
  reader.revalidate_op();
  EXPECT_TRUE(reader.op_valid());
  // After the refresh the same node is old enough.
  (void)reader.protect(src, 0);
  EXPECT_TRUE(reader.op_valid());
  reader.end_op();
  writer.dealloc_unpublished(young);
}

TEST(Hyaline, OldNodeDoesNotTriggerRestart) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  HyalineDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  auto* old_node = writer.template alloc<TestNode>(std::uint64_t{1});
  reader.begin_op();
  std::atomic<ReclaimNode*> src{old_node};
  (void)reader.protect(src, 0);
  EXPECT_TRUE(reader.op_valid());
  reader.end_op();
  writer.dealloc_unpublished(old_node);
}

TEST(Hyaline, EraFilterSkipsPreEntryThreads) {
  // A slot whose era predates every node in a batch is skipped (its thread
  // would have restarted instead of holding references into the batch), so
  // young batches reclaim even while an old reader is stalled.
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  HyalineDomain smr(cfg);
  auto stalled_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& stalled = stalled_h.get();
  auto& writer = writer_h.get();
  stalled.begin_op();  // era E
  // All of these are born after E, so their batches must skip the slot.
  for (int i = 0; i < 12; ++i) {
    auto* n = writer.template alloc<TestNode>(std::uint64_t(i));
    writer.retire(n);
  }
  EXPECT_GE(smr.stats().reclaimed_total, 9u)
      << "young batches must reclaim despite the stalled old reader";
  stalled.end_op();
}

TEST(Hyaline, CrossThreadReclamationMigratesMemory) {
  auto cfg = test::small_config(2);
  HyalineDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  const auto reused_before = smr.pool().total_reused();
  reader.begin_op();
  for (int i = 0; i < 3; ++i) {
    auto* n = writer.template alloc<TestNode>(std::uint64_t(i));
    writer.retire(n);
  }
  reader.end_op();  // reader frees the batch into *its own* shard
  EXPECT_EQ(smr.stats().reclaimed_total, 3u);
  // The reader's shard now owns the cells.
  auto* n = reader.template alloc<TestNode>(std::uint64_t{0});
  EXPECT_GT(smr.pool().total_reused(), reused_before);
  reader.dealloc_unpublished(n);
}

TEST(Hyaline, ConcurrentEnterLeaveRetireStress) {
  auto cfg = test::small_config(4);
  cfg.era_freq = 2;
  HyalineDomain smr(cfg);
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    Xoshiro256 rng(tid);
    for (int i = 0; i < 20000; ++i) {
      h.begin_op();
      auto* n = h.template alloc<TestNode>(std::uint64_t{tid});
      if (rng.next_in(2) == 0) {
        h.retire(n);
      } else {
        h.dealloc_unpublished(n);
      }
      h.end_op();
    }
  });
  const auto retired = smr.stats().retired_total;
  const auto reclaimed = smr.stats().reclaimed_total;
  EXPECT_EQ(smr.pending_nodes(),
            static_cast<std::int64_t>(retired - reclaimed));
  // Open batches hold at most capacity-1 nodes per thread.
  EXPECT_LE(smr.pending_nodes(), 4 * 5);
}

}  // namespace
}  // namespace scot
