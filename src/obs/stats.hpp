// Per-domain observability counters (DESIGN.md §8).
//
// Every reclamation handle owns one cache-line-padded counter cell,
// registered in the domain's `DomainStats` list the same way handle records
// register in `HandleRegistry`: a lock-free push onto an intrusive list whose
// cells are never unlinked while the domain lives, so aggregation walks the
// list with plain relaxed loads and no deferred reclamation of the cells
// themselves.  Cells are created once per registry record and survive
// claim/release reuse — counts are cumulative domain telemetry, exactly like
// the `ds_restarts` fields they sit next to.
//
// The cells are telemetry only: the retire/free counts behind the pending
// gauge live on the handles (HandleCore), because a library decision reads
// them.
//
// Memory-ordering contract (DESIGN.md §8):
//  * every counter is a relaxed atomic with a single-writer discipline —
//    the owning thread bumps it with a load+store pair, which compiles to an
//    ordinary increment (no lock prefix, no fence);
//  * readers aggregate on read with relaxed loads.  The aggregate is exact
//    in quiescence and approximate while writers run; no reader decision in
//    the library depends on it, so no stronger ordering is needed;
//  * nothing here touches the protect()/begin_op() fast paths — counters
//    sit on retire/scan/join/leave only, and with `SCOT_STATS=0` the
//    helpers compile to empty inlines, leaving zero stats stores in the
//    binary (the bench overhead guard checks this).
//
// Runtime gating rides the existing `SmrConfig::track_stats` knob: when a
// domain is built with track_stats=false, `make_cell` hands out nullptr and
// every helper no-ops on the null cell — the throughput benches keep their
// zero-overhead configuration without a rebuild.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/align.hpp"
#include "common/timing.hpp"
#include "obs/histogram.hpp"

#ifndef SCOT_STATS
#define SCOT_STATS 1
#endif

namespace scot::obs {

enum class Counter : unsigned {
  kJoins = 0,         // domain join()s (session starts)
  kLeaves,            // domain leave()s
  kScans,             // reclamation attempts (limbo scans / batch seals)
  kHeavyBarriers,     // process-wide heavy barriers issued (asym path)
  kEraAdvances,       // global era/epoch clock ticks by this handle
  kOrphanDonations,   // leave() handoffs into the orphan mailbox
  kOrphanAdoptions,   // retire()-side adoptions out of the mailbox
  kBgRounds,          // background-reclaimer rounds (service thread only)
  kBgBatchesDonated,  // full limbo/batch chains handed to the reclaimer
  kBgAdaptations,     // adaptive threshold changes (DESIGN.md §9)
  kCount_
};
inline constexpr unsigned kCounterCount =
    static_cast<unsigned>(Counter::kCount_);

inline constexpr const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kJoins: return "joins";
    case Counter::kLeaves: return "leaves";
    case Counter::kScans: return "scans";
    case Counter::kHeavyBarriers: return "heavy_barriers";
    case Counter::kEraAdvances: return "era_advances";
    case Counter::kOrphanDonations: return "orphan_donations";
    case Counter::kOrphanAdoptions: return "orphan_adoptions";
    case Counter::kBgRounds: return "bg_rounds";
    case Counter::kBgBatchesDonated: return "bg_batches_donated";
    case Counter::kBgAdaptations: return "bg_adaptations";
    case Counter::kCount_: break;
  }
  return "?";
}

// One per handle record, padded so two threads' cells never share a line.
struct alignas(kFalseSharingRange) StatsCell {
  std::atomic<std::uint64_t> counts[kCounterCount] = {};
  // High-water mark of the owner's limbo list / unsealed batch (max-
  // aggregated across cells, unlike the sum-aggregated counters above).
  std::atomic<std::uint64_t> limbo_peak{0};
  // Per-scan wall latency (includes the heavy barrier).
  LatencyHistogram scan_ns;
  std::atomic<StatsCell*> next{nullptr};
};

// Aggregated view of a domain's cells plus its retire/free totals.  Always
// defined so caller code needs no conditional compilation: the cell fields
// read 0 when stats are compiled out or runtime-disabled, while `pending`,
// `retired_total` and `reclaimed_total` are summed from the handles and
// stay live either way.
struct StatsSnapshot {
  bool enabled = false;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t scans = 0;
  std::uint64_t heavy_barriers = 0;
  std::uint64_t era_advances = 0;
  std::uint64_t orphan_donations = 0;
  std::uint64_t orphan_adoptions = 0;
  std::uint64_t bg_rounds = 0;
  std::uint64_t bg_batches_donated = 0;
  std::uint64_t bg_adaptations = 0;
  std::uint64_t limbo_peak = 0;       // max across cells
  std::int64_t pending = 0;           // retired_total - reclaimed_total
  std::uint64_t retired_total = 0;    // sum of HandleCore::retired
  std::uint64_t reclaimed_total = 0;  // sum of HandleCore::reclaimed
  std::uint64_t scan_count = 0;
  double scan_p50_ns = 0;
  double scan_p99_ns = 0;
  double scan_p999_ns = 0;

  std::uint64_t counter(Counter c) const noexcept {
    switch (c) {
      case Counter::kJoins: return joins;
      case Counter::kLeaves: return leaves;
      case Counter::kScans: return scans;
      case Counter::kHeavyBarriers: return heavy_barriers;
      case Counter::kEraAdvances: return era_advances;
      case Counter::kOrphanDonations: return orphan_donations;
      case Counter::kOrphanAdoptions: return orphan_adoptions;
      case Counter::kBgRounds: return bg_rounds;
      case Counter::kBgBatchesDonated: return bg_batches_donated;
      case Counter::kBgAdaptations: return bg_adaptations;
      case Counter::kCount_: break;
    }
    return 0;
  }

  // Human-readable multi-line dump (one "key: value" row per field).
  std::string to_string() const {
    std::string out;
    if (!enabled) return "stats: disabled\n";
    for (unsigned i = 0; i < kCounterCount; ++i) {
      const Counter c = static_cast<Counter>(i);
      out += counter_name(c);
      out += ": " + std::to_string(counter(c)) + "\n";
    }
    out += "limbo_peak: " + std::to_string(limbo_peak) + "\n";
    out += "pending: " + std::to_string(pending) + "\n";
    out += "retired_total: " + std::to_string(retired_total) + "\n";
    out += "reclaimed_total: " + std::to_string(reclaimed_total) + "\n";
    out += "scan_count: " + std::to_string(scan_count) + "\n";
    out += "scan_p50_ns: " + std::to_string(scan_p50_ns) + "\n";
    out += "scan_p99_ns: " + std::to_string(scan_p99_ns) + "\n";
    out += "scan_p999_ns: " + std::to_string(scan_p999_ns) + "\n";
    return out;
  }
};

// The per-domain cell list.  make_cell() is called from handle construction
// (any thread may be appending a registry record); snapshot() from any
// thread.  Cells live until the DomainStats dies — domains declare it before
// their HandleRegistry so cells outlive every handle that points at one.
class DomainStats {
 public:
  DomainStats() = default;
  DomainStats(const DomainStats&) = delete;
  DomainStats& operator=(const DomainStats&) = delete;

  ~DomainStats() {
    StatsCell* c = head_.load(std::memory_order_acquire);
    while (c != nullptr) {
      StatsCell* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  // Returns a fresh padded cell (lock-free push), or nullptr when stats are
  // compiled out or runtime-disabled — the helpers below no-op on null.
  StatsCell* make_cell(bool runtime_enabled) {
#if SCOT_STATS
    if (!runtime_enabled) return nullptr;
    auto* c = new StatsCell;
    StatsCell* h = head_.load(std::memory_order_relaxed);
    do {
      c->next.store(h, std::memory_order_relaxed);
    } while (!head_.compare_exchange_weak(h, c, std::memory_order_release,
                                          std::memory_order_relaxed));
    return c;
#else
    (void)runtime_enabled;
    return nullptr;
#endif
  }

  // Aggregate-on-read: sums (and max-merges) every cell.  Fills only the
  // cell-derived fields; the owning domain adds its retire/free totals.
  StatsSnapshot snapshot() const {
    StatsSnapshot s;
    LatencyHistogram scans;
    for (const StatsCell* c = head_.load(std::memory_order_acquire);
         c != nullptr; c = c->next.load(std::memory_order_acquire)) {
      s.joins += load(c, Counter::kJoins);
      s.leaves += load(c, Counter::kLeaves);
      s.scans += load(c, Counter::kScans);
      s.heavy_barriers += load(c, Counter::kHeavyBarriers);
      s.era_advances += load(c, Counter::kEraAdvances);
      s.orphan_donations += load(c, Counter::kOrphanDonations);
      s.orphan_adoptions += load(c, Counter::kOrphanAdoptions);
      s.bg_rounds += load(c, Counter::kBgRounds);
      s.bg_batches_donated += load(c, Counter::kBgBatchesDonated);
      s.bg_adaptations += load(c, Counter::kBgAdaptations);
      const std::uint64_t peak =
          c->limbo_peak.load(std::memory_order_relaxed);
      if (peak > s.limbo_peak) s.limbo_peak = peak;
      scans.merge(c->scan_ns);
    }
    s.scan_count = scans.count();
    s.scan_p50_ns = scans.percentile(50.0);
    s.scan_p99_ns = scans.percentile(99.0);
    s.scan_p999_ns = scans.percentile(99.9);
    return s;
  }

 private:
  static std::uint64_t load(const StatsCell* c, Counter k) noexcept {
    return c->counts[static_cast<unsigned>(k)].load(
        std::memory_order_relaxed);
  }

  std::atomic<StatsCell*> head_{nullptr};
};

// --- call-site helpers (all no-ops on a null cell / SCOT_STATS=0) ---------

inline void count(StatsCell* c, Counter k, std::uint64_t add = 1) noexcept {
#if SCOT_STATS
  if (c != nullptr) {
    auto& a = c->counts[static_cast<unsigned>(k)];
    a.store(a.load(std::memory_order_relaxed) + add,
            std::memory_order_relaxed);
  }
#else
  (void)c;
  (void)k;
  (void)add;
#endif
}

inline void peak(StatsCell* c, std::uint64_t v) noexcept {
#if SCOT_STATS
  if (c != nullptr && v > c->limbo_peak.load(std::memory_order_relaxed))
    c->limbo_peak.store(v, std::memory_order_relaxed);
#else
  (void)c;
  (void)v;
#endif
}

// Scan-latency bracket: scan_begin() reads the clock only when the cell is
// live (0 otherwise), scan_end() records the elapsed time and counts the
// scan in one step.
inline std::uint64_t scan_begin(const StatsCell* c) noexcept {
#if SCOT_STATS
  if (c != nullptr) return now_ns();
#else
  (void)c;
#endif
  return 0;
}

inline void scan_end(StatsCell* c, std::uint64_t t0) noexcept {
#if SCOT_STATS
  if (c != nullptr) {
    count(c, Counter::kScans);
    c->scan_ns.record(now_ns() - t0);
  }
#else
  (void)c;
  (void)t0;
#endif
}

}  // namespace scot::obs
