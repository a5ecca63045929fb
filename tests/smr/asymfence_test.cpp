// Asymmetric-fence path resolution and the membarrier-unavailable fallback:
// turning the knob off selects the fence path, the same one the fallback
// engages automatically, and the reclaimer side still quiesces readers on
// both paths.  Covers the slot schemes (HP/HPopt protect publication) and
// the era schemes (EBR/IBR/Hyaline begin_op activation, HE first-slot publish;
// Hyaline's scan is the batch seal plus the end_op drain).
#include <gtest/gtest.h>

#include "common/asymfence.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

// Restores the test hook on scope exit so a failing assertion cannot leak
// the forced fallback into later tests.
struct ForcedFallback {
  explicit ForcedFallback(bool on = true) {
    asymfence::force_fallback_for_testing(on);
  }
  ~ForcedFallback() { asymfence::force_fallback_for_testing(false); }
};

template <class Smr>
class AsymFenceTest : public ::testing::Test {};

// Every scheme with a reader-side publication the asymmetric discipline
// relaxes: protect-side (HP/HPopt/HE) and activation-side (EBR/IBR/HLN).
using FenceBearingSchemes =
    ::testing::Types<HpDomain, HpOptDomain, HeDomain, IbrDomain, EbrDomain,
                     HyalineDomain>;
TYPED_TEST_SUITE(AsymFenceTest, FenceBearingSchemes);

// Knob off runs exactly the discipline a host without membarrier runs.
TYPED_TEST(AsymFenceTest, KnobOffResolvesFallbackPath) {
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = false;
  TypeParam knob_off(cfg);
  ForcedFallback forced;
  cfg.asymmetric_fences = true;
  TypeParam fallback(cfg);
  EXPECT_EQ(knob_off.fence_path(), fallback.fence_path());
}

// Knob on runs whatever the host supports — the path the bench reports
// record — without assuming membarrier is available.
TYPED_TEST(AsymFenceTest, KnobOnResolvesAsymmetricPath) {
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = true;
  TypeParam smr(cfg);
  EXPECT_STREQ(asymfence::path_name(smr.fence_path()),
               asymfence::runtime_path_name());
}

TYPED_TEST(AsymFenceTest, FallbackEngagesWhenMembarrierUnavailable) {
  ForcedFallback forced;
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = true;
  TypeParam smr(cfg);
  EXPECT_EQ(smr.fence_path(), asymfence::Path::kFenceFallback);
  EXPECT_STREQ(asymfence::runtime_path_name(), "fence-fallback");
}

// The core quiescence guarantee on the fallback path, reached both ways
// (membarrier forced unavailable, and the knob off): a protected node
// survives scan churn, and releasing the protection makes it reclaimable.
TYPED_TEST(AsymFenceTest, FallbackScansStillQuiesceReaders) {
  for (const bool knob_off : {false, true}) {
    ForcedFallback forced(!knob_off);
    SmrConfig cfg = test::small_config(2);
    cfg.asymmetric_fences = !knob_off;
    TypeParam smr(cfg);
    ASSERT_EQ(smr.fence_path(), asymfence::Path::kFenceFallback);

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
    test::churn_retire(writer, 3000);  // force many scans (heavy barriers)
    EXPECT_EQ(header_of(victim)->debug_state, kNodeRetired)
        << "fallback scans must still observe the reservation"
        << (knob_off ? " (knob off)" : " (forced)");
    EXPECT_EQ(static_cast<TestNode*>(got)->payload, 42u);
    reader.end_op();

    writer.scan();
    EXPECT_EQ(header_of(victim)->debug_state, kNodeFreed)
        << "after release the fallback reclaimer must reclaim the node"
        << (knob_off ? " (knob off)" : " (forced)");
  }
}

// Same guarantee on whichever path each knob setting resolves (knob on: the
// membarrier fast path on Linux, the fallback elsewhere; knob off: the
// fallback).
TYPED_TEST(AsymFenceTest, ProtectionHoldsOnEveryPath) {
  for (const bool asym : {true, false}) {
    SmrConfig cfg = test::small_config(2);
    cfg.asymmetric_fences = asym;
    TypeParam smr(cfg);

    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    auto* victim = writer.template alloc<TestNode>(std::uint64_t{7});
    std::atomic<ReclaimNode*> src{victim};

    reader.begin_op();
    ASSERT_EQ(reader.protect(src, 0), victim);
    writer.retire(victim);
    test::churn_retire(writer, 2000);
    EXPECT_EQ(header_of(victim)->debug_state, kNodeRetired)
        << (asym ? "asymmetric" : "fenced") << " path lost a protection";
    reader.end_op();
  }
}

TEST(AsymFencePathNames, AreStable) {
  EXPECT_STREQ(asymfence::path_name(asymfence::Path::kMembarrier),
               "membarrier");
  EXPECT_STREQ(asymfence::path_name(asymfence::Path::kFenceFallback),
               "fence-fallback");
}

TEST(AsymFenceBarriers, FallbackBarriersAreCallable) {
  // Smoke both barrier flavours on the fallback path (no registration
  // required) — they must be plain fences, not syscalls that can fail.
  asymfence::light_barrier(asymfence::Path::kFenceFallback);
  asymfence::heavy_barrier(asymfence::Path::kFenceFallback);
}

}  // namespace
}  // namespace scot
