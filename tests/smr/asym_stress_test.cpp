// Concurrent begin_op/protect/retire/scan hammer for every reclaiming
// scheme, run with asymmetric fences ON and OFF against the same seed.  The
// writer continuously swaps out and retires nodes while readers open an
// operation per access — so the era schemes' *activation* publication
// (EBR's epoch reservation, IBR's interval, Hyaline's slot head) is
// hammered as hard as the slot schemes' protect() — and then hold the
// resulting protection; a reservation the (asymmetric) reclaimer side
// fails to observe lets the pool recycle a node a reader still
// dereferences, which the paired-payload check catches — and which TSan
// reports as a plain-write/plain-read race, making the TSan CI dimension
// (SCOT_ASYM=0/1) a second checker.
//
// Two churner threads additionally join and leave the handle registry in a
// tight loop (scoped_handle per iteration, occasionally leaving with a
// pending retire), so registry membership changes race the scans' heavy
// barriers and the late-joiner / orphan-adoption arguments of DESIGN.md §7
// are exercised under both fence disciplines.
#include <gtest/gtest.h>

#include <atomic>

#include "common/xorshift.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

struct StressNode : ReclaimNode {
  std::uint64_t tag1;
  std::uint64_t tag2;
  explicit StressNode(std::uint64_t t) : tag1(t), tag2(t) {}
};

constexpr unsigned kSources = 8;
constexpr unsigned kReaders = 3;
constexpr unsigned kChurners = 2;

template <class Smr>
class AsymStressTest : public ::testing::Test {};

// Slot schemes (protect-side publication) plus the era schemes
// (activation-side publication); NR is omitted — it never reclaims, so the
// recycle-detection invariant is vacuous there.
using AsymSchemes = ::testing::Types<HpDomain, HpOptDomain, HeDomain,
                                     IbrDomain, EbrDomain, HyalineDomain>;
TYPED_TEST_SUITE(AsymStressTest, AsymSchemes);

template <class Smr>
void hammer(bool asym, std::uint64_t seed) {
  SmrConfig cfg = scot::test::small_config(kReaders + 1);
  cfg.asymmetric_fences = asym;
  Smr smr(cfg);

  std::vector<std::atomic<ReclaimNode*>> src(kSources);
  {
    auto w = scoped_handle(smr);
    for (unsigned i = 0; i < kSources; ++i)
      src[i].store(w->template alloc<StressNode>(std::uint64_t{i}),
                   std::memory_order_release);
  }

  const int writes = scot::test::scaled_iters(20000);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  scot::test::run_threads(kReaders + 1 + kChurners, [&](unsigned tid) {
    if (tid >= kReaders + 1) {
      // Churner: joins and leaves the registry in a tight loop while the
      // writer's asymmetric-fence scans are walking it — every iteration
      // interleaves a head push / record claim / release with concurrent
      // heavy-barrier snapshots, plus one protected read so a just-joined
      // record's first reservation is exercised immediately.
      Xoshiro256 rng(seed * 0x7f4a7c15 + tid);
      while (!stop.load(std::memory_order_acquire)) {
        auto h = scoped_handle(smr);
        const unsigned s = static_cast<unsigned>(rng.next_in(kSources));
        h->begin_op();
        ReclaimNode* p = h->protect(src[s], 0);
        if (!h->op_valid()) {
          h->revalidate_op();
        } else if (p != nullptr) {
          const auto* n = static_cast<const StressNode*>(p);
          const std::uint64_t a = n->tag1;
          const std::uint64_t b = n->tag2;
          if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
        }
        h->end_op();
        // Leave mid-workload with a pending retire every few laps, so the
        // orphan donate/adopt path runs under the same fence discipline.
        if (rng.next_in(4) == 0) {
          auto* extra = h->template alloc<StressNode>(0x200000000ULL + tid);
          h->retire(extra);
        }
      }
      return;
    }
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    Xoshiro256 rng(seed * 0x2545f491 + tid);
    if (tid == kReaders) {
      // Writer: swap a source to a fresh uniquely-tagged node, retire the
      // old one (driving scans at the small_config threshold).
      for (int i = 0; i < writes; ++i) {
        const unsigned s = static_cast<unsigned>(rng.next_in(kSources));
        auto* n = h.template alloc<StressNode>(
            0x100000000ULL + static_cast<std::uint64_t>(i));
        ReclaimNode* old = src[s].exchange(n, std::memory_order_acq_rel);
        h.retire(old);
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    // Reader: a fresh operation per access (activation is on the hot
    // path), protect, then check the paired payload.  While the
    // reservation is held the node must not be recycled, so the two tags
    // must match; a recycle in flight tears them (and trips TSan).
    // Restart-flag schemes (Hyaline) may invalidate the operation instead
    // of protecting — honour the contract and skip the dereference.
    while (!stop.load(std::memory_order_acquire)) {
      const unsigned s = static_cast<unsigned>(rng.next_in(kSources));
      h.begin_op();
      ReclaimNode* p = h.protect(src[s], 0);
      if (!h.op_valid()) {
        h.revalidate_op();
      } else if (p != nullptr) {
        const auto* n = static_cast<const StressNode*>(p);
        const std::uint64_t a = n->tag1;
        const std::uint64_t b = n->tag2;
        if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
      }
      h.end_op();
    }
  });

  EXPECT_EQ(torn.load(), 0u)
      << "a protected node was recycled under "
      << (asym ? "asymmetric" : "symmetric") << " fences";
}

TYPED_TEST(AsymStressTest, ProtectRetireScanAsymmetric) {
  hammer<TypeParam>(/*asym=*/true, /*seed=*/0xA5A5);
}

// Knob off: the symmetric discipline (a seq_cst fence per publication and
// per scan), the same path hosts without membarrier run with the knob on.
TYPED_TEST(AsymStressTest, ProtectRetireScanClassic) {
  hammer<TypeParam>(/*asym=*/false, /*seed=*/0xA5A5);
}

}  // namespace
}  // namespace scot
