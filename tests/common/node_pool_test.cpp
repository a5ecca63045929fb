#include "smr/node_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/list_common.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

TEST(NodePool, AllocatesDistinctAlignedCells) {
  NodePool pool(1);
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = pool.alloc(0, 48);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
  }
}

TEST(NodePool, FreeThenAllocReusesMemory) {
  NodePool pool(1);
  void* p = pool.alloc(0, 48);
  header_of(p)->alloc_size = 48;
  pool.free(0, p, 48);
  void* q = pool.alloc(0, 48);
  EXPECT_EQ(p, q) << "same-size free-list should serve LIFO";
  EXPECT_EQ(pool.total_reused(), 1u);
}

TEST(NodePool, DifferentSizeClassesDoNotMix) {
  NodePool pool(1);
  void* small = pool.alloc(0, 24);
  pool.free(0, small, 24);
  void* big = pool.alloc(0, 200);
  EXPECT_NE(small, big) << "a 200-byte request must not reuse a 24-byte cell";
}

TEST(NodePool, BirthEraSurvivesFreeAndReuseIsMonotone) {
  // The Hyaline-1S soundness contract (DESIGN.md §4): the 16-byte header is
  // preserved across free, and a reused cell gets a newer era *before* the
  // node is published.  Free writes only the breadcrumb of the header, and
  // alloc writes none of it.
  NodePool pool(1);
  void* p = pool.alloc(0, 48);
  header_of(p)->birth_era.store(41, std::memory_order_release);
  header_of(p)->alloc_size = 48;
  pool.free(0, p, 48);
  EXPECT_EQ(header_of(p)->birth_era.load(std::memory_order_acquire), 41u)
      << "free() must not clobber the allocation header";
  void* q = pool.alloc(0, 48);
  ASSERT_EQ(p, q);
  EXPECT_EQ(header_of(q)->birth_era.load(std::memory_order_acquire), 41u)
      << "alloc() itself must not reset the header; the handle stamps it";
  EXPECT_EQ(header_of(q)->alloc_size, 48u);
  EXPECT_EQ(header_of(q)->debug_state, kNodeFreed);
}

TEST(NodePool, FreelistLinkDoesNotOverlapHeader) {
  // The free-list link reuses ReclaimNode::smr_next, which lives inside the
  // node, not in the preceding header.
  NodePool pool(1);
  void* a = pool.alloc(0, 48);
  header_of(a)->birth_era.store(7, std::memory_order_release);
  void* b = pool.alloc(0, 48);
  header_of(b)->birth_era.store(8, std::memory_order_release);
  pool.free(0, a, 48);
  pool.free(0, b, 48);  // b links to a through smr_next
  EXPECT_EQ(header_of(a)->birth_era.load(std::memory_order_acquire), 7u);
  EXPECT_EQ(header_of(b)->birth_era.load(std::memory_order_acquire), 8u);
}

TEST(NodePool, ShardsAreIndependent) {
  NodePool pool(2);
  void* a = pool.alloc(0, 48);
  pool.free(0, a, 48);
  // Shard 1 must not see shard 0's free list.
  void* b = pool.alloc(1, 48);
  EXPECT_NE(a, b);
  // But shard 0 still reuses its own.
  EXPECT_EQ(pool.alloc(0, 48), a);
}

TEST(NodePool, CrossShardMigration) {
  // Hyaline frees through the reclaiming thread's shard: memory allocated by
  // shard 0 may be freed into shard 1 and reused there.
  NodePool pool(2);
  void* a = pool.alloc(0, 48);
  pool.free(1, a, 48);
  EXPECT_EQ(pool.alloc(1, 48), a);
}

TEST(NodePool, CarveStatsAdvance) {
  NodePool pool(1);
  const auto before = pool.total_carved();
  (void)pool.alloc(0, 48);
  EXPECT_EQ(pool.total_carved(), before + 1);
  EXPECT_GE(pool.total_block_bytes(), NodePool::kBlockBytes);
}

TEST(NodePool, MaxNodeBytesFitsLargestClass) {
  NodePool pool(1);
  void* p = pool.alloc(0, NodePool::max_node_bytes());
  EXPECT_NE(p, nullptr);
}

TEST(NodePool, DebugStateTracksLifecycle) {
  NodePool pool(1);
  auto* n = static_cast<ReclaimNode*>(pool.alloc(0, 48));
  header_of(n)->debug_state = kNodeLive;
  header_of(n)->alloc_size = 48;
  pool.free(0, n, 48);
  EXPECT_EQ(header_of(n)->debug_state, kNodeFreed);
}

TEST(NodePool, ListNodeFillsOneCacheLine) {
  // The SMR base is two words, so a u64 list node plus its header is one
  // 64-byte cell.
  EXPECT_EQ(sizeof(ReclaimNode), 16u);
  using U64Node = ListNode<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(sizeof(AllocHeader) + sizeof(U64Node), 64u);
}

TEST(NodePool, LineSizedCellsNeverStraddleALine) {
  // Blocks start on a cache line, so 64-byte cells carved across three
  // blocks each fill exactly one line.
  NodePool pool(1);
  const int n = static_cast<int>(2 * NodePool::kBlockBytes / 64) + 10;
  for (int i = 0; i < n; ++i) {
    void* p = pool.alloc(0, 48);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(header_of(p)) % kCacheLine, 0u)
        << "cell " << i;
  }
}

TEST(NodePool, ManyBlocksWhenExhausted) {
  NodePool pool(1);
  // 256 KiB blocks of 64-byte cells -> force at least two blocks.
  const int n = static_cast<int>(NodePool::kBlockBytes / 64) + 10;
  for (int i = 0; i < n; ++i) (void)pool.alloc(0, 48);
  EXPECT_GE(pool.total_block_bytes(), 2 * NodePool::kBlockBytes);
}

}  // namespace
}  // namespace scot
