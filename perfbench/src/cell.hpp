// One (workload, scheme) cell: fresh structure, prefill, unrecorded
// warm-up, measured phase, output checks.  Written once against a small
// "target" surface and instantiated per structure and scheme in
// list_cells.cpp, tree_cells.cpp and kv_cells.cpp:
//
//   Session session();                       joins the structure's domain(s)
//   WorkerState worker_state(unsigned t);    per-worker buffers
//   bool load(Session&, WorkerState&, key);  prefill insert; true = added
//   Outcome apply(Session&, WorkerState&, Op, key);
//   std::size_t size();                      quiescent element count
//   std::int64_t pending() const;            retired, not yet freed
//   scot::obs::StatsSnapshot stats() const;
//   std::uint64_t restarts() const, recoveries() const,
//                 migrated_buckets() const;
//
// The targets call only the structures' and the store's public functions.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "smr/smr.hpp"

namespace perfbench {

// What one call returned, as the output checks see it.
enum class Outcome : std::uint8_t {
  kHit,      // read found the key (kv: with its own value); kv update done
  kMiss,     // read / insert / erase legitimately found nothing to do
  kAdded,    // insert added a key
  kRemoved,  // erase removed a key
  kFailed,   // the call's result is wrong
};

// Untraced cells time every kSampleEvery-th measured call for the latency
// percentiles; traced cells time every call.
inline constexpr std::uint64_t kSampleEvery = 8;

// Calls f.template operator()<Domain>() with the domain type of `s`.
template <class F>
decltype(auto) with_domain(SchemeId s, F&& f) {
  switch (s) {
    case SchemeId::kNR: return f.template operator()<scot::NoReclaimDomain>();
    case SchemeId::kEBR: return f.template operator()<scot::EbrDomain>();
    case SchemeId::kHP: return f.template operator()<scot::HpDomain>();
    case SchemeId::kHE: return f.template operator()<scot::HeDomain>();
    case SchemeId::kIBR: return f.template operator()<scot::IbrDomain>();
    case SchemeId::kHLN: return f.template operator()<scot::HyalineDomain>();
    case SchemeId::kHPopt: break;
  }
  throw std::invalid_argument("perfbench: scheme is not benchmarked");
}

// A uint64 -> uint64 map structure over its own domain.
template <class Domain, class Map>
class MapTarget {
 public:
  using Session = scot::ScopedHandle<Domain>;
  struct WorkerState {};

  explicit MapTarget(const scot::SmrConfig& cfg) : smr_(cfg), map_(smr_) {}

  Session session() { return scot::scoped_handle(smr_); }
  WorkerState worker_state(unsigned) { return {}; }
  bool load(Session& s, WorkerState&, std::uint64_t key) {
    return map_.insert(*s, key, key);
  }
  Outcome apply(Session& s, WorkerState&, Op op, std::uint64_t key) {
    switch (op) {
      case Op::kRead:
        return map_.contains(*s, key) ? Outcome::kHit : Outcome::kMiss;
      case Op::kInsert:
        return map_.insert(*s, key, key) ? Outcome::kAdded : Outcome::kMiss;
      case Op::kErase:
        return map_.erase(*s, key) ? Outcome::kRemoved : Outcome::kMiss;
    }
    return Outcome::kFailed;
  }

  std::size_t size() { return map_.size_unsafe(); }
  std::int64_t pending() const { return smr_.pending_nodes(); }
  scot::obs::StatsSnapshot stats() const { return smr_.stats(); }
  std::uint64_t restarts() const {
    std::uint64_t n = 0;
    for (const auto* r = smr_.registry().head(); r != nullptr;
         r = r->next_record())
      n += r->handle.ds_restarts;
    return n;
  }
  std::uint64_t recoveries() const {
    std::uint64_t n = 0;
    for (const auto* r = smr_.registry().head(); r != nullptr;
         r = r->next_record())
      n += r->handle.ds_recoveries;
    return n;
  }
  std::uint64_t migrated_buckets() const { return 0; }

 private:
  Domain smr_;  // first: the map's teardown deallocates through it
  Map map_;
};

namespace cell_detail {

enum Phase : int { kWarmup, kMeasure, kStop };

struct alignas(64) WorkerTally {
  std::uint64_t prefill_added = 0;
  std::uint64_t prefill_failed = 0;
  std::uint64_t ops = 0;       // warm-up + measured
  std::uint64_t measured = 0;
  std::uint64_t added = 0;
  std::uint64_t removed = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::vector<std::uint32_t> latency_ns;                 // untraced samples
  std::array<std::vector<std::uint32_t>, kOpKinds> op_ns;  // traced: all ops
};

inline SpanKind span_of(Op op) noexcept {
  switch (op) {
    case Op::kRead: return SpanKind::kRead;
    case Op::kInsert: return SpanKind::kInsert;
    case Op::kErase: return SpanKind::kErase;
  }
  return SpanKind::kRead;
}

inline std::uint32_t clamp_ns(std::uint64_t ns) noexcept {
  return ns > 0xffffffffULL ? 0xffffffffu : static_cast<std::uint32_t>(ns);
}

// Nearest-rank percentile of `v` (reorders it).
inline double percentile(std::vector<std::uint32_t>& v, double p) {
  if (v.empty()) return 0;
  auto rank =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

}  // namespace cell_detail

template <class Target, class Make>
CellResult run_cell(const CellContext& ctx, const CellPlan& plan,
                    Make&& make) {
  using namespace cell_detail;
  using Session = typename Target::Session;
  Tracer* const tr = plan.traced ? ctx.tracer : nullptr;
  WorkerPool& pool = *ctx.pool;
  const unsigned workers = pool.size();
  const Inputs& in = *ctx.inputs;
  const char* const label = scot::scheme_name(plan.scheme);

  CellResult r;
  std::vector<WorkerTally> tally(workers);
  ScopedSpan cell_span(tr, 0, SpanKind::kCell, 0, label);
  std::unique_ptr<Target> target;

  // --- setup: construct + prefill (timed as setup_s) -----------------------
  {
    ScopedSpan setup_span(tr, 0, SpanKind::kSetup, cell_span.id(), label);
    const std::uint32_t parent = setup_span.id();
    const std::uint64_t t0 = now_ns();
    target = make();
    pool.run([&](unsigned t) {
      WorkerTally& w = tally[t];
      auto ws = target->worker_state(t);
      Session s = [&] {
        ScopedSpan join(tr, t + 1, SpanKind::kJoin, parent);
        return target->session();
      }();
      // Self-test hook: forget one successful insert, which the
      // size-conservation check below must catch.
      bool forget_one = plan.corrupt && t == 0;
      for (std::size_t i = t; i < in.prefill.size(); i += workers) {
        if (!target->load(s, ws, in.prefill[i])) {
          ++w.prefill_failed;
        } else if (forget_one) {
          forget_one = false;
        } else {
          ++w.prefill_added;
        }
      }
      ScopedSpan leave(tr, t + 1, SpanKind::kLeave, parent);
      s.reset();
    });
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  std::uint64_t expected = 0;
  for (const WorkerTally& w : tally) {
    expected += w.prefill_added;
    r.failed += w.prefill_failed;
  }
  r.attempted = in.prefill.size();
  bool size_ok = target->size() == expected;
  r.migrated_buckets = target->migrated_buckets();
  const scot::obs::StatsSnapshot stats0 = target->stats();
  const std::uint64_t restarts0 = target->restarts();
  const std::uint64_t recoveries0 = target->recoveries();

  // --- warm-up + measured phase (one continuous closed loop) ----------------
  ScopedSpan run_span(tr, 0, SpanKind::kRun, cell_span.id(), label);
  const std::uint32_t run_id = run_span.id();
  std::atomic<int> phase{kWarmup};
  pool.start([&](unsigned t) {
    WorkerTally& w = tally[t];
    if (tr != nullptr) {
      for (auto& v : w.op_ns) v.reserve(std::size_t{1} << 18);
    } else {
      w.latency_ns.reserve(std::size_t{1} << 17);
    }
    auto ws = target->worker_state(t);
    Session s = [&] {
      ScopedSpan join(tr, t + 1, SpanKind::kJoin, run_id);
      return target->session();
    }();
    const std::vector<std::uint64_t>& stream = in.streams[t];
    const std::size_t mask = stream.size() - 1;
    std::size_t i = 0;
    for (;;) {
      const int ph = phase.load(std::memory_order_relaxed);
      if (ph == kStop) break;
      const std::uint64_t e = stream[i++ & mask];
      const Op op = op_of(e);
      const bool measured = ph == kMeasure;
      Outcome out;
      if (tr != nullptr) {
        const std::uint64_t t0 = now_ns();
        out = target->apply(s, ws, op, key_of(e));
        const std::uint64_t t1 = now_ns();
        if (measured) {
          w.op_ns[static_cast<unsigned>(op)].push_back(clamp_ns(t1 - t0));
          tr->record_op(t + 1, span_of(op), t0, t1, run_id);
        }
      } else if (measured && w.measured % kSampleEvery == 0) {
        const std::uint64_t t0 = now_ns();
        out = target->apply(s, ws, op, key_of(e));
        w.latency_ns.push_back(clamp_ns(now_ns() - t0));
      } else {
        out = target->apply(s, ws, op, key_of(e));
      }
      switch (out) {
        case Outcome::kAdded: ++w.added; break;
        case Outcome::kRemoved: ++w.removed; break;
        case Outcome::kFailed: ++w.failed; break;
        default: break;
      }
      ++w.ops;
      if (measured) {
        ++w.measured;
        if (op == Op::kRead) {
          ++w.gets;
          if (out == Outcome::kHit) ++w.hits;
        }
      }
    }
    ScopedSpan leave(tr, t + 1, SpanKind::kLeave, run_id);
    s.reset();
  });

  // The main thread only sleeps and samples the pending gauge, so the
  // process never has more busy threads than workers + 1.
  std::this_thread::sleep_for(std::chrono::duration<double>(plan.warmup_s));
  const std::uint64_t m0 = now_ns();
  phase.store(kMeasure, std::memory_order_relaxed);
  const auto m_end = m0 + static_cast<std::uint64_t>(plan.measure_s * 1e9);
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  for (;;) {
    pending_sum += static_cast<double>(target->pending());
    ++pending_samples;
    const std::uint64_t now = now_ns();
    if (now >= m_end) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<std::uint64_t>(2'000'000, m_end - now)));
  }
  phase.store(kStop, std::memory_order_relaxed);
  const std::uint64_t m1 = now_ns();
  pool.wait();
  run_span.close();

  // --- output checks and metrics (quiescent) ---------------------------------
  std::vector<std::uint32_t> latency;
  std::array<std::vector<std::uint32_t>, kOpKinds> op_ns;
  for (WorkerTally& w : tally) {
    r.run_ops += w.ops;
    r.measured_ops += w.measured;
    r.failed += w.failed;
    r.gets += w.gets;
    r.get_hits += w.hits;
    expected = expected + w.added - w.removed;
    latency.insert(latency.end(), w.latency_ns.begin(), w.latency_ns.end());
    for (unsigned k = 0; k < kOpKinds; ++k) {
      op_ns[k].insert(op_ns[k].end(), w.op_ns[k].begin(), w.op_ns[k].end());
      latency.insert(latency.end(), w.op_ns[k].begin(), w.op_ns[k].end());
    }
  }
  r.attempted += r.run_ops;
  size_ok = size_ok && target->size() == expected;
  if (!size_ok) r.failed = r.attempted;  // conservation broken: nothing holds

  r.mops = static_cast<double>(r.measured_ops) / static_cast<double>(m1 - m0) *
           1e3;
  r.unreclaimed_avg = pending_sum / static_cast<double>(pending_samples);
  r.latency_samples = latency.size();
  r.p50_us = percentile(latency, 50.0) / 1e3;
  r.p99_us = percentile(latency, 99.0) / 1e3;
  if (tr != nullptr) {
    for (unsigned k = 0; k < kOpKinds; ++k)
      r.op_median_ns[k] = percentile(op_ns[k], 50.0);
    r.all_median_ns = r.p50_us * 1e3;
  }

  const scot::obs::StatsSnapshot stats1 = target->stats();
  r.restarts = target->restarts() - restarts0;
  r.recoveries = target->recoveries() - recoveries0;
  r.retires = stats1.retired_total - stats0.retired_total;
  r.reclaimed = stats1.reclaimed_total - stats0.reclaimed_total;
  r.scans = stats1.scans - stats0.scans;
  r.heavy_barriers = stats1.heavy_barriers - stats0.heavy_barriers;
  r.limbo_peak = stats1.limbo_peak;
  r.scan_p99_us = stats1.scan_p99_ns / 1e3;
  if (tr != nullptr) {
    tr->counter(run_id, "ops", static_cast<double>(r.run_ops));
    tr->counter(run_id, "retires", static_cast<double>(r.retires));
    tr->counter(run_id, "reclaimed", static_cast<double>(r.reclaimed));
    tr->counter(run_id, "scans", static_cast<double>(r.scans));
    tr->counter(run_id, "heavy_barriers",
                static_cast<double>(r.heavy_barriers));
    tr->counter(run_id, "restarts", static_cast<double>(r.restarts));
    tr->counter(run_id, "recoveries", static_cast<double>(r.recoveries));
    tr->counter(run_id, "failed", static_cast<double>(r.failed));
  }
  target.reset();  // teardown inside the cell span
  return r;
}

}  // namespace perfbench
