// Background reclaimer (smr/reclaimer.hpp, DESIGN.md §9): service-thread
// lifecycle, drain-on-shutdown custody, mutator barrier attribution, the
// adaptive memory-target controller, and a start/stop vs join/leave race
// hammer.  The hammer is the TSan witness for the doorbell and donation
// protocol; the drain tests are the ASan witness that stopping (or
// destroying) a domain mid-donation leaks nothing.  Every check keys on
// behaviour (the pending gauge, the effective knobs) so the suite holds
// under SCOT_STATS=OFF; obs-cell assertions skip when stats are disabled.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "smr/reclaimer.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

SmrConfig bg_config(unsigned threads = 2) {
  SmrConfig cfg = test::small_config(threads);
  cfg.background_reclaim = true;
  cfg.reclaim_interval_us = 100;
  return cfg;
}

// Poll until `pred()` holds or ~2s elapse; the reclaimer runs on its own
// schedule, so every cross-thread expectation in this file is eventual.
template <class Pred>
bool eventually(Pred&& pred, int timeout_ms = 2000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// At most one batch (small_config's scan_threshold) left unreclaimed.
// Once mutators donate only the service thread frees, so its rounds ran.
template <class Smr>
bool drained(const Smr& smr) {
  return smr.pending_nodes() <= 16;
}

// --- ReclaimerThreadBase (scheme-agnostic service thread) -------------------

TEST(ReclaimerThreadBaseTest, DoorbellTriggersRoundBeforePollPeriod) {
  ReclaimerThreadBase t;
  std::atomic<int> rounds{0};
  // Poll period of 1s: any round observed below the timeout was doorbell-
  // driven, not the fallback poll.
  t.start(1'000'000, [&] { rounds.fetch_add(1); });
  EXPECT_TRUE(t.running());
  t.ring();
  EXPECT_TRUE(eventually([&] { return rounds.load() > 0; }));
  t.stop();
  EXPECT_FALSE(t.running());
}

TEST(ReclaimerThreadBaseTest, StopIsIdempotentAndRingOutlivesThread) {
  ReclaimerThreadBase t;
  t.ring();  // before start: consumed by the first wait, never lost
  std::atomic<int> rounds{0};
  t.start(1'000'000, [&] { rounds.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return rounds.load() > 0; }));
  t.stop();
  t.stop();            // idempotent
  t.ring();            // after stop: safe no-op
  EXPECT_FALSE(t.running());
}

// --- Domain lifecycle -------------------------------------------------------

template <class Smr>
class ReclaimerTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReclaimerTest, test::ReclaimingSchemes);

TYPED_TEST(ReclaimerTest, ConfigStartsServiceAndStopDrains) {
  TypeParam smr(bg_config());
  EXPECT_TRUE(smr.background_active());
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), test::scaled_iters(8000));
  }
  // The service thread must reclaim the backlog before we pull the plug.
  ASSERT_TRUE(eventually([&] { return drained(smr); }))
      << "pending=" << smr.pending_nodes();
  smr.stop_background_reclaimer();
  EXPECT_FALSE(smr.background_active());
  // Inline reclamation works again after stop: mutators re-adopt whatever
  // is still parked in the background mailbox and scan it themselves.
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), test::scaled_iters(4000));
  }
  // Destructor drains the rest; ASan closes the custody argument.
}

TYPED_TEST(ReclaimerTest, StopStartRestartsCleanly) {
  TypeParam smr(bg_config());
  smr.stop_background_reclaimer();
  EXPECT_FALSE(smr.background_active());
  smr.start_background_reclaimer();
  EXPECT_TRUE(smr.background_active());
  auto h = scoped_handle(smr);
  test::churn_retire(h.get(), test::scaled_iters(4000));
  EXPECT_TRUE(eventually([&] { return drained(smr); }))
      << "pending=" << smr.pending_nodes();
}

TYPED_TEST(ReclaimerTest, DonatedBatchesAreAdoptedAndReclaimed) {
  TypeParam smr(bg_config());
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), test::scaled_iters(20000));
  }  // leave() donates the sub-threshold remainder to the mailbox too
  EXPECT_TRUE(eventually([&] { return drained(smr); }))
      << "pending=" << smr.pending_nodes();
  EXPECT_GT(smr.stats().reclaimed_total, 0u);
  const obs::StatsSnapshot s = smr.stats();
  if (!s.enabled) return;  // the obs cells below are compiled out
  EXPECT_GT(s.bg_batches_donated, 0u);
  EXPECT_GT(s.bg_rounds, 0u);
  EXPECT_GT(s.scans, 0u);
}

// With the reclaimer on, no mutator issues a process-wide heavy barrier:
// every one is charged to the service thread's handle.  After a stop no
// round is in flight, so every record's cell is final; a record that never
// ran a round (bg_rounds == 0) is a mutator's and must show no barrier.
TYPED_TEST(ReclaimerTest, MutatorsIssueNoHeavyBarriers) {
  SmrConfig cfg = bg_config();
  cfg.track_stats = true;
  TypeParam smr(cfg);
  {
    auto a = scoped_handle(smr);
    auto b = scoped_handle(smr);
    test::churn_retire(a.get(), test::scaled_iters(10000));
    test::churn_retire(b.get(), test::scaled_iters(10000));
  }
  if (!smr.stats().enabled) {
    GTEST_SKIP() << "built without SCOT_STATS; no obs attribution to check";
  }
  ASSERT_TRUE(eventually([&] { return drained(smr); }))
      << "pending=" << smr.pending_nodes();
  smr.stop_background_reclaimer();
  const auto cell = [](const auto* r, obs::Counter c) {
    return r->handle.stats_->counts[static_cast<unsigned>(c)].load();
  };
  unsigned mutators = 0;
  for (const auto* r = smr.registry().head(); r != nullptr;
       r = r->next_record()) {
    if (cell(r, obs::Counter::kBgRounds) != 0) continue;
    ++mutators;
    EXPECT_EQ(cell(r, obs::Counter::kHeavyBarriers), 0u)
        << "heavy barrier(s) escaped to the mutator on record " << r->index;
  }
  EXPECT_EQ(mutators, 2u);
}

// Figure-10-style bound: under sustained churn with a memory_target set,
// the controller must either keep pending under the target outright or
// respond by tightening the effective thresholds.  The mutator applies
// bounded backpressure (as a real allocator would) so the single-core CI
// container cannot starve the service thread into a flaky failure.
TYPED_TEST(ReclaimerTest, AdaptiveControllerBoundsPendingUnderChurn) {
  SmrConfig cfg = bg_config();
  cfg.scan_threshold = 256;  // high base: the controller has room to act
  cfg.era_freq = 64;
  cfg.memory_target = 512;
  TypeParam smr(cfg);
  const unsigned base_threshold =
      smr.reclaim_control().effective_scan_threshold();

  std::int64_t peak = 0;
  {
    auto h = scoped_handle(smr);
    const int chunks = test::scaled_iters(150);
    for (int i = 0; i < chunks; ++i) {
      test::churn_retire(h.get(), 256);
      peak = std::max(peak, smr.pending_nodes());
      // Backpressure: past 4x target, yield until the reclaimer catches up
      // (bounded, so a wedged reclaimer fails the test instead of hanging).
      for (int spin = 0;
           spin < 200 &&
           smr.pending_nodes() >
               static_cast<std::int64_t>(4 * cfg.memory_target);
           ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  // The bound: the peak never escaped the backpressure envelope, and once
  // the churn stops the reclaimer brings pending under the target.
  EXPECT_LE(peak, static_cast<std::int64_t>(8 * cfg.memory_target));
  EXPECT_TRUE(eventually([&] {
    return smr.pending_nodes() <=
           static_cast<std::int64_t>(cfg.memory_target);
  })) << "pending=" << smr.pending_nodes();
  EXPECT_LE(smr.reclaim_control().effective_scan_threshold(), base_threshold);
}

// The controller itself, deterministically: rounds are driven by hand on a
// domain whose own service thread was never started (DomainReclaimer is
// exactly the round/adapt half, independent of the thread).  Sustained
// pressure comes from a mutator's private sub-threshold limbo — pending
// the reclaimer can see in the gauge but cannot adopt, so it persists
// across rounds the way a backlogged system's would.
TYPED_TEST(ReclaimerTest, AdaptiveControllerTightensThenRelaxes) {
  SmrConfig cfg = test::small_config(2);
  cfg.background_reclaim = false;  // no thread; rounds run inline below
  cfg.scan_threshold = 256;
  cfg.batch_capacity = 256;  // Hyaline's threshold analogue, same base
  cfg.era_freq = 64;
  cfg.memory_target = 64;
  TypeParam smr(cfg);
  DomainReclaimer<TypeParam> svc(smr);
  const ReclaimControl& c = smr.reclaim_control();
  const unsigned base_threshold = c.effective_scan_threshold();
  ASSERT_EQ(base_threshold, 256u);
  // Adaptations counted in the service handle's cell (0 without stats).
  const auto adaptations = [&] { return smr.stats().bg_adaptations; };

  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), 200);  // below threshold: stays in limbo
    ASSERT_GT(smr.pending_nodes(),
              static_cast<std::int64_t>(cfg.memory_target));

    svc.round();  // over target: one halving step
    EXPECT_EQ(c.effective_scan_threshold(), 128u);
    EXPECT_EQ(adaptations(), smr.stats().enabled ? 1u : 0u);

    for (int i = 0; i < 8; ++i) svc.round();  // converge to the floors
    EXPECT_EQ(c.effective_scan_threshold(), 8u);  // kMinThreshold
    EXPECT_EQ(c.effective_era_freq(), 4u);        // kMinEraFreq
    const std::uint64_t at_floor = adaptations();
    svc.round();  // still over target, but floored: no further adaptation
    EXPECT_EQ(adaptations(), at_floor);
  }  // leave() with the service inactive scans inline: pressure released

  // Pressure gone: the thresholds double back to the configured base (and
  // not past it), one relax step per round.
  for (int i = 0; i < 10; ++i) svc.round();
  EXPECT_LE(smr.pending_nodes(),
            static_cast<std::int64_t>(cfg.memory_target));
  EXPECT_EQ(c.effective_scan_threshold(), base_threshold);
  EXPECT_EQ(c.effective_era_freq(), 64u);
}

// TSan witness: one controller cycling the service thread while mutator
// threads churn sessions (join / retire past the donation threshold /
// leave) the whole time.  Exercises every cross-thread edge at once —
// doorbell rings against a stopping thread, donations racing stop's final
// drain, leave() donating to a mailbox the reclaimer is taking, orphan
// adoption flipping between inline and background custody.
TYPED_TEST(ReclaimerTest, StartStopVersusJoinLeaveHammer) {
  SmrConfig cfg = bg_config(4);
  TypeParam smr(cfg);
  std::atomic<bool> stop{false};

  std::thread controller([&] {
    const int cycles = test::scaled_iters(40);
    for (int i = 0; i < cycles; ++i) {
      smr.stop_background_reclaimer();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      smr.start_background_reclaimer();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  test::run_threads(3, [&](unsigned) {
    while (!stop.load(std::memory_order_relaxed)) {
      auto h = scoped_handle(smr);
      test::churn_retire(h.get(), 64);
    }
  });
  controller.join();
  // Whatever custody state the hammer ended in, teardown must drain it.
}

// NR's surface is uniform but inert: nothing to reclaim, nothing to start.
TEST(ReclaimerNrTest, NoReclaimDomainHasInertSurface) {
  SmrConfig cfg = bg_config();
  NoReclaimDomain smr(cfg);
  EXPECT_FALSE(smr.background_active());
  smr.start_background_reclaimer();  // no-op
  EXPECT_FALSE(smr.background_active());
  EXPECT_EQ(smr.stats().bg_rounds, 0u);
  smr.stop_background_reclaimer();   // no-op
}

}  // namespace
}  // namespace scot
