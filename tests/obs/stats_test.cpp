// Observability layer (DESIGN.md §8): counter aggregation across handle
// join/leave churn, the pending gauge, histogram percentiles against a
// sorted-sample reference, and the trace ring's wrap-without-tearing
// guarantee (the TSan lane runs the concurrent cases to check the
// relaxed-cell contract and the gauge's read order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

// ---------------------------------------------------------------- counters

template <class Smr>
class StatsDomainTest : public ::testing::Test {};

TYPED_TEST_SUITE(StatsDomainTest, test::AllSchemes);

TYPED_TEST(StatsDomainTest, CountersAggregateAcrossJoinLeaveChurn) {
  constexpr unsigned kThreads = 4;
  const int laps = test::scaled_iters(50);
  constexpr int kRetiresPerLap = 20;
  TypeParam smr(test::small_config(kThreads));
  test::run_threads(kThreads, [&](unsigned tid) {
    for (int lap = 0; lap < laps; ++lap) {
      auto h = scoped_handle(smr);
      for (int i = 0; i < kRetiresPerLap; ++i) {
        auto* n = h->template alloc<TestNode>(std::uint64_t{tid});
        h->retire(n);
      }
    }
  });
  const obs::StatsSnapshot s = smr.stats();
  const std::uint64_t joins =
      static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(laps);
  // Join/leave/retire counts are exact in quiescence: every scoped_handle
  // lap is one join and one leave, every retire() is one count, and counts
  // survive record reuse, so churned-through records lose nothing.
  EXPECT_EQ(s.retired_total, joins * kRetiresPerLap);
  EXPECT_EQ(s.pending,
            static_cast<std::int64_t>(s.retired_total - s.reclaimed_total));
  if (!s.enabled) GTEST_SKIP() << "stats compiled out (SCOT_STATS=0)";
  EXPECT_EQ(s.joins, joins);
  EXPECT_EQ(s.leaves, joins);
  EXPECT_EQ(s.scan_count, s.scans)
      << "every counted scan must have recorded one latency sample";
  if constexpr (!std::is_same_v<TypeParam, NoReclaimDomain>) {
    EXPECT_GT(s.scans, 0u);
    EXPECT_GT(s.reclaimed_total, 0u);
    EXPECT_GT(s.limbo_peak, 0u);
    EXPECT_GT(s.scan_p50_ns, 0.0);
    EXPECT_GE(s.scan_p999_ns, s.scan_p50_ns);
  }
  const std::string dump = s.to_string();
  EXPECT_NE(dump.find("retired_total: "), std::string::npos);
  EXPECT_NE(dump.find("scan_p99_ns: "), std::string::npos);
}

TYPED_TEST(StatsDomainTest, OrphanHandoffIsCounted) {
  if constexpr (std::is_same_v<TypeParam, NoReclaimDomain>) {
    GTEST_SKIP() << "NR has no orphan path";
  } else {
    TypeParam smr(test::small_config(3));
    auto reader = scoped_handle(smr);
    std::atomic<ReclaimNode*> src{nullptr};
    {
      auto w = scoped_handle(smr);
      auto* victim = w->template alloc<TestNode>(std::uint64_t{1});
      src.store(victim);
      // Pin the victim so the leaver's final scan cannot free it: the
      // limbo remainder (or Hyaline's open batch) must be donated.
      reader->begin_op();
      (void)reader->protect(src, 0);
      w->retire(victim);
    }
    obs::StatsSnapshot s = smr.stats();
    if (!s.enabled) GTEST_SKIP() << "stats compiled out (SCOT_STATS=0)";
    EXPECT_GE(s.orphan_donations, 1u)
        << "leave with unreclaimable retires must donate";
    {
      auto w2 = scoped_handle(smr);
      auto* n = w2->template alloc<TestNode>(std::uint64_t{2});
      w2->retire(n);  // first retire adopts the orphan mailbox
    }
    EXPECT_GE(smr.stats().orphan_adoptions, 1u)
        << "the next retirer must adopt the donated nodes";
    reader->end_op();
  }
}

// track_stats=false silences the obs cells only: the retire/free totals
// and the pending gauge are summed from the handles and stay live.
TYPED_TEST(StatsDomainTest, RuntimeDisabledSnapshotIsZero) {
  auto cfg = test::small_config(2);
  cfg.track_stats = false;
  TypeParam smr(cfg);
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), 100);
  }
  const obs::StatsSnapshot s = smr.stats();
  EXPECT_FALSE(s.enabled);
  EXPECT_EQ(s.joins, 0u);
  EXPECT_EQ(s.scans, 0u);
  EXPECT_EQ(s.heavy_barriers, 0u);
  EXPECT_EQ(s.limbo_peak, 0u);
  EXPECT_EQ(s.scan_count, 0u);
  EXPECT_EQ(s.to_string(), "stats: disabled\n");
  EXPECT_EQ(s.retired_total, 100u);
  EXPECT_EQ(s.pending, smr.pending_nodes());
}

TEST(DomainStats, SnapshotSumsCountersAndMaxMergesPeaks) {
  obs::DomainStats ds;
  obs::StatsCell* a = ds.make_cell(true);
  if (a == nullptr) GTEST_SKIP() << "stats compiled out (SCOT_STATS=0)";
  obs::StatsCell* b = ds.make_cell(true);
  obs::count(a, obs::Counter::kEraAdvances, 5);
  obs::count(b, obs::Counter::kEraAdvances, 7);
  obs::count(a, obs::Counter::kJoins);
  obs::peak(a, 10);
  obs::peak(b, 3);
  obs::peak(b, 2);  // lower watermark must not regress the max
  const std::uint64_t t0 = obs::scan_begin(a);
  obs::scan_end(a, t0);
  const obs::StatsSnapshot s = ds.snapshot();
  EXPECT_EQ(s.era_advances, 12u);
  EXPECT_EQ(s.joins, 1u);
  EXPECT_EQ(s.limbo_peak, 10u);
  EXPECT_EQ(s.scans, 1u);
  EXPECT_EQ(s.scan_count, 1u);
  // Null cells (runtime-disabled) are silently ignored by every helper.
  obs::StatsCell* off = ds.make_cell(false);
  EXPECT_EQ(off, nullptr);
  obs::count(off, obs::Counter::kEraAdvances);
  obs::peak(off, 99);
  obs::scan_end(off, obs::scan_begin(off));
  EXPECT_EQ(ds.snapshot().era_advances, 12u);
}

// ----------------------------------------------------------- pending gauge

template <class Smr>
class PendingGauge : public ::testing::Test {};

TYPED_TEST_SUITE(PendingGauge, test::AllSchemes);

// The gauge is the paper's memory metric and the adaptive controller's
// input, so it counts with telemetry off (track_stats=false here, and the
// SCOT_STATS=OFF build): nothing reclaimable, so pending is exactly N.
TYPED_TEST(PendingGauge, CountsWithTelemetryOff) {
  constexpr std::uint64_t kN = 32;
  SmrConfig cfg = test::small_config(2);
  cfg.track_stats = false;
  cfg.scan_threshold = 2 * kN;  // no scan or seal before N retires
  cfg.batch_capacity = 2 * kN;
  TypeParam smr(cfg);
  auto reader = scoped_handle(smr);
  reader->begin_op();  // pin a reservation (EBR/IBR/Hyaline epoch or era)
  {
    auto w = scoped_handle(smr);
    test::churn_retire(w.get(), static_cast<int>(kN));
    EXPECT_EQ(smr.pending_nodes(), static_cast<std::int64_t>(kN));
    const obs::StatsSnapshot s = smr.stats();
    EXPECT_FALSE(s.enabled);
    EXPECT_EQ(s.retired_total, kN);
    EXPECT_EQ(s.reclaimed_total, 0u);
  }
  reader->end_op();
}

template <class Smr>
class PendingGaugeConcurrent : public ::testing::Test {};

TYPED_TEST_SUITE(PendingGaugeConcurrent, test::ReclaimingSchemes);

// A sampler reads the gauge while 4 threads churn sessions (join, retire
// inside operations, leave), so frees land on other handles than the
// retires — through orphan adoption, Hyaline's last-reference drops and,
// with the reclaimer on, the service thread.  The read order (frees before
// retires) must keep every sample non-negative; at quiescence the gauge
// is exact.  Reclaiming on every retire keeps pending near 0, and 64 idle
// records lengthen each read, so a reversed read order goes negative here
// on every run.
TYPED_TEST(PendingGaugeConcurrent, NeverNegativeUnderChurn) {
  constexpr unsigned kThreads = 4;
  constexpr int kRetiresPerLap = 40;
  const int laps = test::scaled_iters(200);
  for (const bool bg : {false, true}) {
    SmrConfig cfg = test::small_config(kThreads + 2);
    cfg.scan_threshold = 1;
    cfg.batch_capacity = 1;
    cfg.asymmetric_fences = false;  // cheap scans: frees come fast
    cfg.background_reclaim = bg;
    TypeParam smr(cfg);
    std::vector<typename TypeParam::Handle*> idle(64);
    for (auto*& h : idle) h = &smr.join();
    for (auto* h : idle) smr.leave(*h);
    std::atomic<bool> sampling{false};
    std::atomic<bool> done{false};
    std::int64_t min_seen = 0;
    std::thread sampler([&] {
      while (!done.load(std::memory_order_acquire)) {
        min_seen = std::min(min_seen, smr.pending_nodes());
        sampling.store(true, std::memory_order_relaxed);
      }
    });
    // Churn only once the sampler runs, or a one-core host may finish the
    // churn before the sampler is ever scheduled.
    while (!sampling.load(std::memory_order_relaxed)) std::this_thread::yield();
    test::run_threads(kThreads, [&](unsigned tid) {
      for (int lap = 0; lap < laps; ++lap) {
        auto h = scoped_handle(smr);
        for (int i = 0; i < kRetiresPerLap; ++i) {
          h->begin_op();
          h->retire(h->template alloc<TestNode>(std::uint64_t{tid}));
          h->end_op();
        }
      }
    });
    done.store(true, std::memory_order_release);
    sampler.join();
    EXPECT_GE(min_seen, 0) << "background_reclaim=" << bg;

    smr.stop_background_reclaimer();  // quiesce: no round in flight
    const obs::StatsSnapshot s = smr.stats();
    EXPECT_EQ(s.retired_total,
              std::uint64_t{kThreads} * static_cast<std::uint64_t>(laps) *
                  kRetiresPerLap);
    EXPECT_EQ(smr.pending_nodes(),
              static_cast<std::int64_t>(s.retired_total - s.reclaimed_total));
  }
}

// --------------------------------------------------------------- histogram

// The histogram's rank convention, replicated for the reference.
std::uint64_t rank_of(double p, std::uint64_t total) {
  auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(total) + 0.5);
  return std::min(std::max<std::uint64_t>(rank, 1), total);
}

TEST(LatencyHistogram, PercentilesMatchSortedSampleReference) {
  using H = obs::LatencyHistogram;
  auto hist = std::make_unique<H>();
  std::vector<std::uint64_t> samples;
  Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Body around a few hundred "ns" with a 1% heavy tail, mimicking the
    // scan-latency shape the bench records.
    std::uint64_t v = 50 + rng.next_in(2000);
    if (rng.next_in(100) == 0) v += 100000 + rng.next_in(1000000);
    samples.push_back(v);
    hist->record(v);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(hist->count(), samples.size());
  EXPECT_EQ(hist->min(), samples.front());
  EXPECT_EQ(hist->max(), samples.back());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::uint64_t exact = samples[rank_of(p, samples.size()) - 1];
    const double got = hist->percentile(p);
    // "Within one bucket" of the reference: the log-linear layout bounds
    // the relative bucket width by 2^-kSubBits (6.25%).
    const unsigned want_bucket = H::index_of(exact);
    const unsigned got_bucket =
        H::index_of(static_cast<std::uint64_t>(got));
    const unsigned dist = want_bucket > got_bucket
                              ? want_bucket - got_bucket
                              : got_bucket - want_bucket;
    EXPECT_LE(dist, 1u) << "p" << p << ": got " << got << " vs exact "
                        << exact;
  }
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  using H = obs::LatencyHistogram;
  auto a = std::make_unique<H>();
  auto b = std::make_unique<H>();
  auto combined = std::make_unique<H>();
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = 10 + rng.next_in(500);
    const std::uint64_t vb = 1000 + rng.next_in(50000);
    a->record(va);
    combined->record(va);
    b->record(vb);
    combined->record(vb);
  }
  a->merge(*b);
  EXPECT_EQ(a->count(), combined->count());
  EXPECT_EQ(a->sum(), combined->sum());
  EXPECT_EQ(a->min(), combined->min());
  EXPECT_EQ(a->max(), combined->max());
  // merge() is bucket-wise, so percentiles agree exactly, not just within
  // a bucket.
  for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a->percentile(p), combined->percentile(p)) << "p" << p;
  }
}

TEST(LatencyHistogram, BucketRelativeErrorIsBounded) {
  using H = obs::LatencyHistogram;
  unsigned last = 0;
  for (std::uint64_t v = 0; v < 200000; v += 1 + v / 64) {
    const unsigned idx = H::index_of(v);
    EXPECT_GE(idx, last) << "bucket index must be monotone in the value";
    last = idx;
    const double mid = H::value_of(idx);
    // Midpoint error is at most one bucket width: exact below kSubBuckets,
    // then bounded by v * 2^-kSubBits.
    EXPECT_LE(std::abs(mid - static_cast<double>(v)),
              static_cast<double>(v) / H::kSubBuckets + 1.0)
        << "value " << v;
  }
}

// ------------------------------------------------------------------- trace

TEST(TraceRing, WrapsWithoutTearingUnderConcurrentSnapshots) {
  auto ring = std::make_unique<obs::TraceRing>();
  constexpr std::uint64_t kEvents = 3 * obs::TraceRing::kCapacity;
  std::atomic<bool> done{false};
  test::run_threads(2, [&](unsigned tid) {
    if (tid == 0) {
      // Writer: every field is derived from the event index, so any torn
      // read on the reader side breaks an arithmetic invariant.
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        ring->emit(static_cast<obs::TraceKind>(i % 3), i, 2 * i + 1);
      }
      done.store(true, std::memory_order_release);
      return;
    }
    std::vector<obs::TraceEvent> out;
    while (!done.load(std::memory_order_acquire)) {
      out.clear();
      ring->snapshot(out);
      std::uint64_t prev = 0;
      bool first = true;
      for (const obs::TraceEvent& e : out) {
        EXPECT_EQ(e.dur, 2 * e.start + 1) << "torn slot";
        EXPECT_EQ(static_cast<std::uint32_t>(e.kind), e.start % 3);
        if (!first) {
          EXPECT_GT(e.start, prev) << "snapshot out of order";
        }
        prev = e.start;
        first = false;
      }
    }
  });
  EXPECT_EQ(ring->events_emitted(), kEvents);
  std::vector<obs::TraceEvent> fin;
  ring->snapshot(fin);
  ASSERT_LE(fin.size(), obs::TraceRing::kCapacity);
  ASSERT_FALSE(fin.empty());
  EXPECT_EQ(fin.back().start, kEvents - 1)
      << "a quiescent snapshot must end at the newest event";
  EXPECT_EQ(fin.size(), obs::TraceRing::kCapacity)
      << "a quiescent snapshot retains exactly one ring of history";
}

TEST(TraceLog, ClaimReleaseReusesRingsAndExportsChromeJson) {
  auto& log = obs::TraceLog::instance();
  obs::TraceRing* a = log.claim();
  obs::TraceRing* b = log.claim();
  EXPECT_NE(a, b);
  a->emit(obs::TraceKind::kScan, obs::trace_clock(), 100);
  a->emit(obs::TraceKind::kJoin, obs::trace_clock(), 0);
  log.release(b);
  obs::TraceRing* c = log.claim();
  EXPECT_EQ(c, b) << "claim() must reuse released rings";
  std::ostringstream os;
  log.export_chrome_to(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "scan must export as a duration event";
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos)
      << "join must export as an instant event";
  EXPECT_GE(log.total_events(), 2u);
  log.release(a);
  log.release(c);
}

}  // namespace
}  // namespace scot
