#include "smr/node_pool.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/list_common.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

constexpr std::uintptr_t kHugeMask = NodePool::kHugeBlockBytes - 1;

// The bracketed mode in the transparent-huge-page switch ("always",
// "madvise" or "never"); empty when the kernel has no THP support.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string word;
  while (in >> word) {
    if (word.size() > 2 && word.front() == '[' && word.back() == ']')
      return word.substr(1, word.size() - 2);
  }
  return {};
}

// The VmFlags line of the /proc/self/smaps mapping that holds `p`.
std::string vm_flags_of(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return line;
    }
  }
  return {};
}

// The base of the 2 MiB block a pool carves its next 64-byte cell from,
// once the shard's first (small) block is used up.
std::uintptr_t first_huge_block(NodePool& pool) {
  for (std::size_t i = 0; i < NodePool::kBlockBytes / 64; ++i)
    (void)pool.alloc(0, 48);
  return reinterpret_cast<std::uintptr_t>(header_of(pool.alloc(0, 48))) &
         ~kHugeMask;
}

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
  // Blocks start on a cache line, so 64-byte cells carved across the first
  // small block and two huge blocks each fill exactly one line.
  NodePool pool(1);
  const int n = static_cast<int>(
      (NodePool::kBlockBytes + NodePool::kHugeBlockBytes) / 64 + 10);
  for (int i = 0; i < n; ++i) {
    void* p = pool.alloc(0, 48);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(header_of(p)) % kCacheLine, 0u)
        << "cell " << i;
  }
}

TEST(NodePool, ManyBlocksWhenExhausted) {
  NodePool pool(1);
  // One cell past the 256 KiB first block takes a 2 MiB block.
  const int n = static_cast<int>(NodePool::kBlockBytes / 64) + 10;
  for (int i = 0; i < n; ++i) (void)pool.alloc(0, 48);
  EXPECT_EQ(pool.total_block_bytes(),
            NodePool::kBlockBytes + NodePool::kHugeBlockBytes);
}

TEST(NodePool, HugeBlocksAre2MiBAlignedAndAdvised) {
  const std::string mode = thp_mode();
  if (mode.empty() || mode == "never")
    GTEST_SKIP() << "transparent huge pages unavailable (mode '" << mode
                 << "')";
  // Carve through the first block and into a third: the first cell of each
  // huge block starts the block, 2 MiB-aligned, in a MADV_HUGEPAGE mapping.
  NodePool pool(1);
  const std::size_t first = NodePool::kBlockBytes / 64;
  const std::size_t per_huge = NodePool::kHugeBlockBytes / 64;
  for (std::size_t i = 0; i < first + 2 * per_huge + 1; ++i) {
    void* cell = header_of(pool.alloc(0, 48));
    if (i < first || (i - first) % per_huge != 0) continue;
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(cell) & kHugeMask, 0u)
        << "cell " << i;
    const std::string flags = vm_flags_of(cell);
    EXPECT_NE(flags.find(" hg"), std::string::npos)
        << "cell " << i << ": " << flags;
  }
}

TEST(NodePool, BlocksOutliveTheirPool) {
  if (thp_mode().empty())
    GTEST_SKIP() << "no huge-page mappings: blocks come from operator new";
  // A destroyed pool parks its huge block; the next pool carves it again.
  std::uintptr_t released = 0;
  {
    NodePool a(1);
    released = first_huge_block(a);
  }
  EXPECT_GE(NodePool::cached_blocks(), 1u);
  {
    NodePool b(1);
    EXPECT_EQ(first_huge_block(b), released);
  }
  // More pools die at once than the cache holds: it stops at its cap and
  // the rest are unmapped.
  {
    std::vector<std::unique_ptr<NodePool>> pools;
    std::set<std::uintptr_t> blocks;
    for (std::size_t i = 0; i < NodePool::kBlockCacheCap + 4; ++i) {
      pools.push_back(std::make_unique<NodePool>(1));
      EXPECT_TRUE(blocks.insert(first_huge_block(*pools.back())).second)
          << "two live pools share a block";
    }
    EXPECT_EQ(NodePool::cached_blocks(), 0u);
  }
  EXPECT_EQ(NodePool::cached_blocks(), NodePool::kBlockCacheCap);
}

TEST(NodePool, ConcurrentPoolsShareTheBlockCache) {
  // Pools are created, filled and destroyed on four threads at once, so
  // blocks move between them through the cache.  Every cell carries its
  // owner's stamp; a block handed to two live pools would break one.
  const int rounds = test::scaled_iters(40);
  const std::size_t cells = NodePool::kBlockBytes / 64 + 4096;
  test::run_threads(4, [&](unsigned t) {
    std::vector<std::uint64_t*> mine(cells);
    for (int r = 0; r < rounds; ++r) {
      NodePool pool(1);
      const std::uint64_t stamp = (std::uint64_t{t} << 32) | r;
      for (auto& c : mine) {
        c = static_cast<std::uint64_t*>(pool.alloc(0, 48)) + 2;
        *c = stamp;
      }
      for (auto* c : mine) ASSERT_EQ(*c, stamp);
    }
  });
  EXPECT_LE(NodePool::cached_blocks(), NodePool::kBlockCacheCap);
}

}  // namespace
}  // namespace scot
