// Edge cases of the reclamation layer that the main suites do not reach:
// clock monotonicity, reservation-interval widening, slot reuse across
// operations, retire ordering, and adversarial protect/scan interleavings.
#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

TEST(EbrEdge, EpochAdvancesOnlyOnRetireTicks) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 4;
  EbrDomain smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  const std::uint64_t e0 = smr.epoch();
  for (int i = 0; i < 3; ++i) {
    auto* n = h.template alloc<TestNode>(std::uint64_t{0});
    h.retire(n);
  }
  EXPECT_EQ(smr.epoch(), e0) << "below the tick frequency";
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  h.retire(n);
  EXPECT_EQ(smr.epoch(), e0 + 1) << "4th retire must tick the epoch";
}

TEST(EbrEdge, MinReservationIgnoresIdleThreads) {
  EbrDomain smr(test::small_config(4));
  auto h = scoped_handle(smr);
  EXPECT_EQ(smr.min_reservation(), EbrDomain::kIdle);
  h->begin_op();
  EXPECT_LT(smr.min_reservation(), EbrDomain::kIdle);
  h->end_op();
  EXPECT_EQ(smr.min_reservation(), EbrDomain::kIdle);
}

TEST(HeEdge, EraClockIsMonotoneUnderConcurrentTicks) {
  auto cfg = test::small_config(4);
  cfg.era_freq = 1;
  HeDomain smr(cfg);
  std::atomic<std::uint64_t> max_seen{0};
  test::run_threads(4, [&](unsigned) {
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    std::uint64_t last = 0;
    for (int i = 0; i < 5000; ++i) {
      auto* n = h.template alloc<TestNode>(std::uint64_t{0});
      const std::uint64_t era = birth_era_of(n);
      EXPECT_GE(era, last) << "birth eras must be monotone per thread";
      last = era;
      h.retire(n);
    }
    std::uint64_t cur = max_seen.load();
    while (cur < last && !max_seen.compare_exchange_weak(cur, last)) {
    }
  });
  EXPECT_GE(smr.era(), max_seen.load());
}

TEST(HeEdge, SlotReuseAcrossOperationsIsClean) {
  HeDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  for (int op = 0; op < 50; ++op) {
    h.begin_op();
    (void)h.protect(src, op % 8u);  // rotate through every slot
    h.end_op();
  }
  // All slots must be back to idle: a scan sees no reservations.
  std::vector<std::uint64_t> eras;
  smr.collect_eras(eras);
  EXPECT_TRUE(eras.empty()) << "end_op must clear every used slot";
  h.dealloc_unpublished(n);
}

TEST(HpEdge, SlotsClearAfterOp) {
  HpDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  (void)h.protect(src, 0);
  h.dup(0, 3);
  h.end_op();
  std::vector<ReclaimNode*> hazards;
  smr.collect_hazards(hazards);
  EXPECT_TRUE(hazards.empty());
  h.dealloc_unpublished(n);
}

TEST(HpEdge, ProtectTracksSourceChanges) {
  // The validation loop must re-publish when the source field moves.
  HpDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  auto* b = h.template alloc<TestNode>(std::uint64_t{2});
  std::atomic<ReclaimNode*> src{a};
  h.begin_op();
  EXPECT_EQ(h.protect(src, 0), a);
  src.store(b);
  EXPECT_EQ(h.protect(src, 1), b);
  // Slot 1 must hold b, not a.
  std::vector<ReclaimNode*> hazards;
  smr.collect_hazards(hazards);
  ASSERT_EQ(hazards.size(), 2u);
  EXPECT_EQ(hazards[1], static_cast<ReclaimNode*>(b));
  h.end_op();
  h.dealloc_unpublished(a);
  h.dealloc_unpublished(b);
}

// Slot schemes hold their slots in one inline kMaxSlots array, so every
// domain refuses a slot count outside [1, 32] at construction.  At 32 the
// last array element must publish, dup, scan and clear like any other slot.
TEST(SlotConfig, DomainRejectsSlotCountsOutsideOneTo32) {
  auto cfg = test::small_config(2);
  cfg.slots_per_thread = 33;
  EXPECT_THROW(HpDomain{cfg}, std::invalid_argument);
  EXPECT_THROW(HeDomain{cfg}, std::invalid_argument);
  cfg.slots_per_thread = 0;
  EXPECT_THROW(HpDomain{cfg}, std::invalid_argument);
  EXPECT_THROW(HeDomain{cfg}, std::invalid_argument);
  cfg.slots_per_thread = 32;

  // `collect(smr)` returns what a scan would see, in slot order;
  // `want(smr, n)` is the value a reservation of node n publishes now.
  auto top_slot = [&]<class Smr>(std::type_identity<Smr>, auto collect,
                                 auto want) {
    SCOPED_TRACE(Smr::kName);
    Smr smr(cfg);
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    auto* a = h.template alloc<TestNode>(std::uint64_t{1});
    auto* b = h.template alloc<TestNode>(std::uint64_t{2});
    std::atomic<ReclaimNode*> src{a};
    using Seen = decltype(collect(smr));

    h.begin_op();
    EXPECT_EQ(h.protect(src, 31), a);
    EXPECT_EQ(collect(smr), Seen{want(smr, a)}) << "protect into slot 31";
    h.end_op();
    EXPECT_EQ(collect(smr), Seen{}) << "end_op clears slot 31";

    h.begin_op();
    h.publish(b, 31);
    EXPECT_EQ(collect(smr), Seen{want(smr, b)}) << "publish into slot 31";
    h.end_op();
    EXPECT_EQ(collect(smr), Seen{});

    h.begin_op();
    h.publish(b, 30);
    h.dup(30, 31);
    EXPECT_EQ(collect(smr), (Seen{want(smr, b), want(smr, b)}))
        << "dup(30, 31)";
    h.end_op();
    EXPECT_EQ(collect(smr), Seen{}) << "end_op clears slots 30 and 31";

    h.dealloc_unpublished(a);
    h.dealloc_unpublished(b);
  };
  auto hazards = [](const auto& smr) {
    std::vector<ReclaimNode*> out;
    smr.collect_hazards(out);
    return out;
  };
  auto pointer = [](const auto&, ReclaimNode* n) { return n; };
  top_slot(std::type_identity<HpDomain>{}, hazards, pointer);
  top_slot(std::type_identity<HpOptDomain>{}, hazards, pointer);
  top_slot(
      std::type_identity<HeDomain>{},
      [](const HeDomain& smr) {
        std::vector<std::uint64_t> out;
        smr.collect_eras(out);
        return out;
      },
      [](const HeDomain& smr, ReclaimNode*) { return smr.era(); });
}

// end_op() resets the whole scanned range instead of tracking the slots an
// operation wrote, so every role a guard can allocate must come back idle,
// whichever per-node call wrote it.
template <class Smr>
class SlotClearTest : public ::testing::Test {
 protected:
  static SmrConfig eight_slots() {
    auto cfg = test::small_config(2);
    cfg.slots_per_thread = 8;
    return cfg;
  }

  // What a scan would see in the slots right now, in slot order.
  static auto published(const Smr& smr) {
    if constexpr (std::is_same_v<Smr, HeDomain>) {
      std::vector<std::uint64_t> out;
      smr.collect_eras(out);
      return out;
    } else {
      std::vector<ReclaimNode*> out;
      smr.collect_hazards(out);
      return out;
    }
  }
};

using SlotSchemes = ::testing::Types<HpDomain, HpOptDomain, HeDomain>;
TYPED_TEST_SUITE(SlotClearTest, SlotSchemes);

TYPED_TEST(SlotClearTest, SlotsClearAfterGuardedOp) {
  TypeParam smr(this->eight_slots());
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  std::atomic<TestNode*> src{a};
  {
    TraversalGuard<typename TypeParam::Handle> g(h);
    std::vector<ProtectionSlot<typename TypeParam::Handle, TestNode>> roles;
    for (unsigned i = 0; i < 8; ++i)
      roles.push_back(g.template slot<TestNode>());
    EXPECT_EQ(roles[0].protect(src).get(), a);
    roles[1].publish(a);
    roles[2].dup_from(roles[0]);
    roles[3].dup_from(roles[1]);
    EXPECT_EQ(roles[4].protect(src).get(), a);
    roles[5].dup_from(roles[4]);
    roles[6].publish(a);
    roles[7].dup_from(roles[6]);
    EXPECT_EQ(this->published(smr).size(), 8u) << "all 8 roles published";
  }
  EXPECT_TRUE(this->published(smr).empty())
      << "the guard's end_op must reset every role";
  h.dealloc_unpublished(a);
}

// swap_roles/rotate_roles rename which slot a role names; the published
// values stay where they were, and the renamed role writes its new slot.
TYPED_TEST(SlotClearTest, RoleRenamesMoveIndicesNotValues) {
  TypeParam smr(this->eight_slots());
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  auto* b = h.template alloc<TestNode>(std::uint64_t{2});
  std::atomic<TestNode*> src_a{a};
  std::atomic<TestNode*> src_b{b};
  {
    TraversalGuard<typename TypeParam::Handle> g(h);
    auto x = g.template slot<TestNode>();
    auto y = g.template slot<TestNode>();
    auto z = g.template slot<TestNode>();
    EXPECT_EQ(x.protect(src_a).get(), a);
    EXPECT_EQ(y.protect(src_b).get(), b);
    const auto both = this->published(smr);
    ASSERT_EQ(both.size(), 2u) << "A and B published in two roles";
    if constexpr (!std::is_same_v<TypeParam, HeDomain>) {
      EXPECT_EQ(both[0], a);
      EXPECT_EQ(both[1], b);
    }

    x.swap_roles(y);
    EXPECT_EQ(x.index(), 1u);
    EXPECT_EQ(y.index(), 0u);
    EXPECT_EQ(this->published(smr), both) << "a swap moves no value";

    // x takes y's slot (0), y takes z's (2), z takes x's old one (1).
    x.rotate_roles(y, z);
    EXPECT_EQ(x.index(), 0u);
    EXPECT_EQ(y.index(), 2u);
    EXPECT_EQ(z.index(), 1u);
    EXPECT_EQ(this->published(smr), both) << "a rotation moves no value";

    // The renamed roles write the slots they now name: y fills slot 2, and
    // z overwrites B's slot 1.
    y.publish(b);
    EXPECT_EQ(this->published(smr).size(), 3u);
    EXPECT_EQ(z.protect(src_a).get(), a);
    if constexpr (!std::is_same_v<TypeParam, HeDomain>) {
      const std::vector<ReclaimNode*> want{a, a, b};
      EXPECT_EQ(this->published(smr), want);
    }
  }
  EXPECT_TRUE(this->published(smr).empty())
      << "the guard's end_op must reset every renamed role";
  h.dealloc_unpublished(a);
  h.dealloc_unpublished(b);
}

// The slotless schemes keep nothing per role, so a rename is only the index
// exchange: it compiles against their handles, and protect() through a
// renamed role still returns the source's value.
template <class Smr>
class SlotlessRoleRenameTest : public ::testing::Test {};

using SlotlessSchemes =
    ::testing::Types<NoReclaimDomain, EbrDomain, IbrDomain, HyalineDomain>;
TYPED_TEST_SUITE(SlotlessRoleRenameTest, SlotlessSchemes);

TYPED_TEST(SlotlessRoleRenameTest, RenamesExchangeIndicesOnly) {
  TypeParam smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  auto* b = h.template alloc<TestNode>(std::uint64_t{2});
  std::atomic<TestNode*> src_a{a};
  std::atomic<TestNode*> src_b{b};
  {
    TraversalGuard<typename TypeParam::Handle> g(h);
    auto x = g.template slot<TestNode>();
    auto y = g.template slot<TestNode>();
    auto z = g.template slot<TestNode>();
    EXPECT_EQ(x.protect(src_a).get(), a);
    EXPECT_EQ(y.protect(src_b).get(), b);
    x.swap_roles(y);
    EXPECT_EQ(x.index(), 1u);
    EXPECT_EQ(y.index(), 0u);
    x.rotate_roles(y, z);
    EXPECT_EQ(x.index(), 0u);
    EXPECT_EQ(y.index(), 2u);
    EXPECT_EQ(z.index(), 1u);
    EXPECT_EQ(z.protect(src_b).get(), b);
    EXPECT_TRUE(g.valid());
  }
  h.dealloc_unpublished(a);
  h.dealloc_unpublished(b);
}

TYPED_TEST(SlotClearTest, ListLeavesNoSlotPublished) {
  using Key = std::uint64_t;
  TypeParam smr(this->eight_slots());
  HarrisList<Key, Key, TypeParam, HarrisListWaitFreeTraits> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 8; ++k) ASSERT_TRUE(list.insert(h, k, k));
  // The marked chain 2 -> 3 -> 4 sends both traversals through the
  // dangerous zone.
  for (Key k : {2, 3, 4}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_FALSE(list.contains(h, 3));
  EXPECT_TRUE(list.contains(h, 5));
  EXPECT_TRUE(this->published(smr).empty()) << "after contains";
  EXPECT_TRUE(list.insert(h, 4, 44));
  EXPECT_TRUE(this->published(smr).empty()) << "after insert";
}

TEST(IbrEdge, UpperBoundWidensDuringOperation) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  IbrDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  auto* n = writer.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  reader.begin_op();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  smr.collect_intervals(iv);
  ASSERT_EQ(iv.size(), 1u);
  const auto before = iv[0];
  EXPECT_EQ(before.first, before.second) << "interval starts degenerate";
  // Advance the era, then protect: upper must chase the clock.
  for (int i = 0; i < 10; ++i)
    writer.dealloc_unpublished(
        writer.template alloc<TestNode>(std::uint64_t{0}));
  (void)reader.protect(src, 0);
  iv.clear();
  smr.collect_intervals(iv);
  ASSERT_GE(iv.size(), 1u);
  EXPECT_EQ(iv[0].first, before.first) << "lower must stay pinned";
  EXPECT_GT(iv[0].second, before.second) << "upper must widen";
  reader.end_op();
  writer.dealloc_unpublished(n);
}

TEST(IbrEdge, DisjointLifetimeReclaimsDespiteActiveReader) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  cfg.scan_threshold = 4;
  IbrDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  reader.begin_op();  // interval [e, e]
  // Nodes born and retired strictly after the reader's interval.
  for (int i = 0; i < 64; ++i) {
    auto* n = writer.template alloc<TestNode>(std::uint64_t{0});
    writer.retire(n);
  }
  EXPECT_GT(smr.stats().reclaimed_total, 0u)
      << "non-overlapping lifetimes must reclaim";
  reader.end_op();
}

TEST(NrEdge, RetireIsTerminal) {
  NoReclaimDomain smr(test::small_config(1));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{7});
  h.retire(n);
  EXPECT_EQ(header_of(n)->debug_state, kNodeRetired);
  EXPECT_EQ(smr.pending_nodes(), 1);
  // NR never reuses the cell.
  auto* m = h.template alloc<TestNode>(std::uint64_t{8});
  EXPECT_NE(static_cast<void*>(n), static_cast<void*>(m));
  EXPECT_EQ(n->payload, 7u) << "leaked node stays intact";
  h.dealloc_unpublished(m);
}

// Sink for the interleaving canary below (volatile keeps the read alive).
volatile std::uint64_t g_canary_payload;

TEST(SchemeMatrix, ConcurrentProtectScanInterleaving) {
  // Adversarial interleaving: one thread protects/unprotects a hot pointer
  // in a tight loop while another churns retires through scans.  This is a
  // crash/UAF canary for the publication fences; assertions are weak by
  // design (the schedule is nondeterministic).
  auto run = []<class Smr>(std::type_identity<Smr>) {
    auto cfg = test::small_config(2);
    cfg.scan_threshold = 8;
    cfg.era_freq = 2;
    Smr smr(cfg);
    std::atomic<ReclaimNode*> hot{nullptr};
    std::atomic<bool> stop{false};
    test::run_threads(2, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = sh.get();
      if (tid == 0) {
        Xoshiro256 rng(9);
        for (int i = 0; i < 30000; ++i) {
          auto* n = h.template alloc<TestNode>(std::uint64_t(i));
          hot.store(n, std::memory_order_release);
          // Unpublish before retiring so readers only ever see live-or-
          // retired-but-unreclaimed nodes.
          hot.store(nullptr, std::memory_order_release);
          h.retire(n);
        }
        stop.store(true);
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          h.begin_op();
          ReclaimNode* p = h.protect(hot, 0);
          if (p != nullptr && h.op_valid()) {
            // Touch the payload: UAF here means the scheme is broken.
            g_canary_payload = static_cast<TestNode*>(p)->payload;
          }
          h.end_op();
        }
      }
    });
    SUCCEED();
  };
  run(std::type_identity<EbrDomain>{});
  run(std::type_identity<HpDomain>{});
  run(std::type_identity<HpOptDomain>{});
  run(std::type_identity<HeDomain>{});
  run(std::type_identity<IbrDomain>{});
  run(std::type_identity<HyalineDomain>{});
}

}  // namespace
}  // namespace scot
