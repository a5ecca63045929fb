// Dangerous-zone behaviour of the SCOT Harris list, driven deterministically
// through the debug_mark_only() hook: traversals must skip logically deleted
// chains (optimistic traversal), updates must prune whole chains with one
// CAS, and the recovery optimization must engage instead of full restarts
// when the last safe node stays live.  RoleRotationStress runs the
// role-renaming traversals (both lists, the skip list and the kv map) and
// the tree's copying seek against a scan on every retire.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "kv/kv_store.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class ScotZoneTest : public ::testing::Test {};

TYPED_TEST_SUITE(ScotZoneTest, test::AllSchemes);

template <class List, class Smr>
void fill(List& list, Smr& smr, Key n) {
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < n; ++k) ASSERT_TRUE(list.insert(h, k, k));
}

TYPED_TEST(ScotZoneTest, SearchSkipsMarkedChainWithoutUnlinking) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 8);
  // Build the chain 2 -> 3 -> 4 (all logically deleted, still linked).
  for (Key k : {2, 3, 4}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_EQ(list.physical_size_unsafe(), 8u) << "chain must stay linked";
  EXPECT_EQ(list.size_unsafe(), 5u) << "marked nodes are logically gone";

  // Optimistic traversal: search crosses the zone and does NOT unlink.
  EXPECT_FALSE(list.contains(h, 3));
  EXPECT_TRUE(list.contains(h, 5));
  EXPECT_TRUE(list.contains(h, 7));
  EXPECT_EQ(list.physical_size_unsafe(), 8u)
      << "search-only traversals must never write (read-only optimism)";
}

TYPED_TEST(ScotZoneTest, UpdateTraversalPrunesWholeChainWithOneCas) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 8);
  for (Key k : {2, 3, 4}) ASSERT_TRUE(list.debug_mark_only(h, k));
  const std::int64_t pending_before = smr.pending_nodes();

  // An update that settles right after the chain (first live key >= 4 is 5)
  // must prune the whole chain with its single finishing CAS.  Re-inserting
  // 4 is legal: the marked 4 is logically absent.
  EXPECT_TRUE(list.insert(h, 4, 44));
  EXPECT_EQ(list.physical_size_unsafe(), 6u) << "2,3,4 pruned; new 4 added";
  EXPECT_EQ(smr.pending_nodes(), pending_before + 3)
      << "the whole chain must be retired by the pruning traversal";
  EXPECT_FALSE(list.contains(h, 2));
  EXPECT_FALSE(list.contains(h, 3));
  EXPECT_EQ(list.get(h, 4).value_or(0), 44u) << "new incarnation visible";
  EXPECT_TRUE(list.contains(h, 5));
}

TYPED_TEST(ScotZoneTest, ChainAtHeadIsTraversedAndPruned) {
  // The zone can start at the very first node (prev == &head anchor); this
  // exercises the simple-traversal fix-up documented in scot_find.
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam, HarrisListSimpleTraits> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 6);
  for (Key k : {0, 1, 2}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_FALSE(list.contains(h, 0));
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_TRUE(list.erase(h, 3));  // update traversal prunes the head chain
  EXPECT_EQ(list.physical_size_unsafe(), 2u);
}

TYPED_TEST(ScotZoneTest, ChainAtTailBeforeSentinel) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 6);
  for (Key k : {4, 5}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_FALSE(list.contains(h, 5));
  EXPECT_TRUE(list.contains(h, 3));
  // Insert beyond every live key: settles on the tail sentinel, pruning the
  // trailing chain on the way.
  EXPECT_TRUE(list.insert(h, 50, 0));
  EXPECT_EQ(list.physical_size_unsafe(), 5u);
  EXPECT_EQ(list.size_unsafe(), 5u);
}

TYPED_TEST(ScotZoneTest, EntireListMarked) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 10);
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_EQ(list.size_unsafe(), 0u);
  for (Key k = 0; k < 10; ++k) EXPECT_FALSE(list.contains(h, k));
  EXPECT_TRUE(list.insert(h, 3, 33));  // prunes through the zone
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_EQ(list.get(h, 3).value_or(0), 33u);
}

TYPED_TEST(ScotZoneTest, AdjacentChainsSeparatedByLiveNode) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 10);
  for (Key k : {1, 2}) ASSERT_TRUE(list.debug_mark_only(h, k));
  for (Key k : {4, 5}) ASSERT_TRUE(list.debug_mark_only(h, k));
  // Both zones crossed read-only:
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_TRUE(list.contains(h, 6));
  EXPECT_FALSE(list.contains(h, 4));
  // An update settling at 6 prunes only the *adjacent* chain {4,5} (Harris
  // semantics: earlier chains are skipped, not cleaned).
  EXPECT_TRUE(list.erase(h, 6));
  EXPECT_EQ(list.physical_size_unsafe(), 7u) << "only 4,5,6 removed";
}

TYPED_TEST(ScotZoneTest, ConcurrentZoneTraversalVsPruning) {
  // Readers repeatedly cross a marked chain while writers prune and rebuild
  // it; under robust schemes this is exactly the Figure 2 race that SCOT
  // makes safe.
  const int iters = test::scaled_iters(20000);
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam> list(smr);
  fill(list, smr, 64);
  std::atomic<bool> stop{false};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    if (tid == 0) {
      Xoshiro256 rng(1);
      for (int i = 0; i < iters; ++i) {
        // Mark a little run, then prune it via an update traversal.
        const Key base = rng.next_in(60);
        for (Key k = base; k < base + 3; ++k) list.debug_mark_only(h, k);
        list.insert(h, base + 3, 0);  // prunes the adjacent chain
        for (Key k = base; k < base + 4; ++k) list.insert(h, k, k);
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        list.contains(h, rng.next_in(64));
      }
    }
  });
  // Coherence drain.
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 64; ++k) {
    { const bool was_present = list.contains(h, k); const bool erased = list.erase(h, k); EXPECT_EQ(was_present, erased) << "key " << k; }
  }
}

// Every retire scans (scan_threshold = 1), so under HP and HE a node is
// freed as soon as no slot covers it.  The lists, the skip list and the kv
// map advance by renaming protection roles instead of copying protections,
// and the tree by ascending copies; if a step ever left a node the
// traversal still relies on without a slot naming it, readers here would
// walk freed, recycled nodes.
template <class Smr>
class RoleRotationStress : public ::testing::Test {
 protected:
  static SmrConfig every_retire_scans() {
    auto cfg = test::small_config(4);
    cfg.scan_threshold = 1;
    return cfg;
  }
};

using RotatingSchemes = ::testing::Types<HpDomain, HeDomain>;
TYPED_TEST_SUITE(RoleRotationStress, RotatingSchemes);

// Keys 0..128 in 32 groups: group g is the pinned key 4g, which stays
// present throughout, followed by the movable keys 4g+1..4g+3.
constexpr Key kGroups = 32;
constexpr Key kStressKeys = 4 * kGroups + 1;
constexpr bool pinned(Key k) { return k % 4 == 0; }

// The writer's schedule: takes down one present group's movable keys and
// brings back an absent group's, so freed nodes are recycled at another
// list position.  Half the groups start absent.
struct GroupMover {
  Xoshiro256 rng{11};
  bool present[kGroups] = {};

  GroupMover() {
    for (Key g = 0; g < kGroups; g += 2) present[g] = true;
  }
  Key pick(bool want_present) {
    for (;;) {
      const Key g = rng.next_in(kGroups);
      if (present[g] == want_present) {
        present[g] = !want_present;
        return g;
      }
    }
  }
};

// std::less that, on reader threads, sleeps before every 64th comparison.
// Traversals compare curr's key, read through the reference after the
// sleep, while standing on curr, so a reader stalls on a node its roles
// must still cover: long enough for the writer to unlink, free and recycle
// a node no slot covers.
struct StallingLess {
  static inline thread_local bool reader = false;
  bool operator()(const Key& a, const Key& b) const {
    thread_local unsigned calls = 0;
    if (reader && ++calls % 64 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    return a < b;
  }
};

// One writer moves groups: it takes a group down — marking its three
// movable keys, where the list has the mark-only hook, so they form a
// chain readers cross — prunes the run with an update settling on the
// next pinned key, and re-inserts another group.  Three readers alternate
// get() and contains(): a pinned key must always be found, and a value
// must belong to its key; a reader that walked a freed, recycled node can
// skip past a pinned key.  Ends with a drain-check.
template <class List, class Smr>
void rotation_stress(Smr& smr, List& list) {
  GroupMover mover;
  {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key k = 0; k < kStressKeys; ++k) {
      if (pinned(k) || mover.present[k / 4]) {
        ASSERT_TRUE(list.insert(h, k, k));
      }
    }
  }
  const int iters = test::scaled_iters(10000);
  std::atomic<bool> stop{false};
  std::atomic<bool> lost_pinned{false};
  std::atomic<bool> bad_value{false};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    if (tid == 0) {
      for (int i = 0; i < iters; ++i) {
        const Key down = 4 * mover.pick(true);
        for (Key k = down + 1; k < down + 4; ++k) {
          if constexpr (requires { list.debug_mark_only(h, k); }) {
            list.debug_mark_only(h, k);
          } else {
            list.erase(h, k);
          }
        }
        list.insert(h, down + 4, down + 4);  // pinned: prunes the chain
        const Key up = 4 * mover.pick(false);
        for (Key k = up + 1; k < up + 4; ++k) list.insert(h, k, k);
      }
      stop.store(true);
    } else {
      StallingLess::reader = true;
      Xoshiro256 rng(tid);
      for (unsigned i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Key k = rng.next_in(kStressKeys);
        if (i % 2 == 0) {
          const auto v = list.get(h, k);
          if (v ? *v != k : pinned(k)) bad_value.store(true);
        } else if (!list.contains(h, k) && pinned(k)) {
          lost_pinned.store(true);
        }
      }
    }
  });
  EXPECT_FALSE(lost_pinned.load()) << "contains() missed a pinned key";
  EXPECT_FALSE(bad_value.load()) << "get() missed a pinned key or read "
                                    "another key's value";
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < kStressKeys; ++k) {
    const bool was_present = list.contains(h, k);
    EXPECT_EQ(was_present, pinned(k) || mover.present[k / 4]) << "key " << k;
    EXPECT_EQ(was_present, list.erase(h, k)) << "key " << k;
  }
}

TYPED_TEST(RoleRotationStress, HList) {
  TypeParam smr(this->every_retire_scans());
  HarrisList<Key, Val, TypeParam, HarrisListTraits, StallingLess> list(smr);
  rotation_stress(smr, list);
}

TYPED_TEST(RoleRotationStress, HListWaitFree) {
  TypeParam smr(this->every_retire_scans());
  HarrisList<Key, Val, TypeParam, HarrisListWaitFreeTraits, StallingLess>
      list(smr);
  rotation_stress(smr, list);
}

TYPED_TEST(RoleRotationStress, HMList) {
  TypeParam smr(this->every_retire_scans());
  HarrisMichaelList<Key, Val, TypeParam, StallingLess> list(smr);
  rotation_stress(smr, list);
}

// The skip list has no mark-only hook, so the writer erases: each erase
// marks the tower at every level before unlinking it, and readers cross
// those chains level by level.
TYPED_TEST(RoleRotationStress, SkipList) {
  TypeParam smr(this->every_retire_scans());
  SkipList<Key, Val, TypeParam, SkipListTraits, StallingLess> list(smr);
  rotation_stress(smr, list);
}

// The tree has no mark-only hook, so the writer erases: each erase flags a
// leaf and tags its sibling edge, and readers cross those edges on the way
// to the leaf they stall on.
TYPED_TEST(RoleRotationStress, NMTree) {
  TypeParam smr(this->every_retire_scans());
  NatarajanMittalTree<Key, Val, TypeParam, StallingLess> tree(smr);
  rotation_stress(smr, tree);
}

// The same group schedule over string keys.  The kv map has no mark-only
// hook: erase marks and unlinks, and a failed unlink leaves the marked node
// for the next writer's find to prune.
TYPED_TEST(RoleRotationStress, OneShardKvStore) {
  KvStoreOptions o;
  o.smr = this->every_retire_scans();
  o.shards = 1;
  o.initial_buckets_per_shard = 2;  // growth links sentinels mid-run
  auto store = KvStore::make(*scheme_from_name(TypeParam::kName),
                             StructureId::kKvHash, o);
  ASSERT_TRUE(store.has_value());
  const auto key = [](Key k) { return std::to_string(k); };
  const auto value = [](Key k) { return std::to_string(~k); };
  GroupMover mover;
  {
    auto s = store->session();
    for (Key k = 0; k < kStressKeys; ++k) {
      if (pinned(k) || mover.present[k / 4]) {
        ASSERT_TRUE(s.put(key(k), value(k)));
      }
    }
  }
  const int iters = test::scaled_iters(10000);
  std::atomic<bool> stop{false};
  std::atomic<bool> lost_pinned{false};
  std::atomic<bool> bad_value{false};
  test::run_threads(4, [&](unsigned tid) {
    auto s = store->session();
    if (tid == 0) {
      for (int i = 0; i < iters; ++i) {
        const Key down = 4 * mover.pick(true);
        for (Key k = down + 1; k < down + 4; ++k) s.erase(key(k));
        const Key up = 4 * mover.pick(false);
        for (Key k = up + 1; k < up + 4; ++k) s.put(key(k), value(k));
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      for (unsigned i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Key k = rng.next_in(kStressKeys);
        if (i % 2 == 0) {
          const auto v = s.get(key(k));
          if (v ? *v != value(k) : pinned(k)) bad_value.store(true);
        } else if (!s.contains(key(k)) && pinned(k)) {
          lost_pinned.store(true);
        }
      }
    }
  });
  EXPECT_FALSE(lost_pinned.load()) << "contains() missed a pinned key";
  EXPECT_FALSE(bad_value.load()) << "get() missed a pinned key or read "
                                    "another key's value";
  auto s = store->session();
  for (Key k = 0; k < kStressKeys; ++k) {
    const bool was_present = s.contains(key(k));
    EXPECT_EQ(was_present, pinned(k) || mover.present[k / 4]) << "key " << k;
    EXPECT_EQ(was_present, s.erase(key(k))) << "key " << k;
  }
}

TYPED_TEST(ScotZoneTest, RecoveryOptimizationEngagesUnderContention) {
  // With recovery enabled, validation failures on a live last-safe-node turn
  // into zone escapes (ds_recoveries) instead of full restarts.  We assert
  // the plumbing works: under pruning contention the recovery counter can
  // only be nonzero when the trait is on.
  const int iters = test::scaled_iters(20000);
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam, HarrisListNoRecoveryTraits> list(smr);
  fill(list, smr, 32);
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid + 5);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(32);
      if (rng.next_in(2)) {
        list.debug_mark_only(h, k);
      } else {
        list.insert(h, k, k);
      }
      list.contains(h, rng.next_in(32));
    }
  });
  EXPECT_EQ(smr.recoveries(), 0u) << "recovery must never fire when disabled";
}

}  // namespace
}  // namespace scot
