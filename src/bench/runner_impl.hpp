// The measured loop of the bench harness: one skeleton, three concept
// drivers.
//
// Protocol (paper §5): prefill the structure, then run `threads` workers
// for `millis` ms (or `op_budget` ops each) applying the workload mix;
// report throughput, sampled latency and (optionally) the domain-wide count
// of retired-but-unreclaimed nodes, sampled every 2 ms.
//
// run_measured() owns everything the concepts share: prefill threads,
// per-worker sessions and RNG streams seeded from (run_seed, t), the
// go/stop barrier, the op budget, stride-sampled latency histograms, the
// pending sampler and the CaseResult fold.  A driver supplies only what is
// concept-specific (see run_measured for the hooks):
//   MapDriver        scot::AnyMap     read/insert/delete roll over a key
//                                     range (uniform or Zipfian)
//   ContainerDriver  scot::AnyContainer  push/pop roll (<ins%> is the push
//                                     share), or with split_workload even
//                                     workers push and odd workers pop;
//                                     deque ends are picked per op by an
//                                     RNG bit
//   KvDriver         scot::KvStore    the map roll over string keys, with
//                                     YCSB put() as the write
// run_case() in runner.cpp builds the facade, picks the driver by
// container_kind(cfg.structure) and takes the median of cfg.runs runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/options.hpp"
#include "common/affinity.hpp"
#include "common/backoff.hpp"
#include "common/timing.hpp"
#include "common/xorshift.hpp"
#include "common/zipf.hpp"
#include "core/core.hpp"
#include "obs/histogram.hpp"

namespace scot::bench {

namespace detail {

// SplitMix64 finalizer, used to decorrelate Zipfian ranks from key order:
// without it the hot keys would cluster at the front of the ordered
// structures and shorten exactly the traversals the benchmark measures.
inline std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// The domain configuration every harness run uses (paper calibration).
inline SmrConfig smr_config_for(const CaseConfig& cfg) {
  SmrConfig scfg;
  scfg.max_threads = cfg.threads;
  scfg.scan_threshold = 128;        // paper calibration
  scfg.era_freq = 12 * cfg.threads; // paper calibration
  // Hyaline's reclaim cadence is the batch handoff, not a limbo scan; the
  // library's auto capacity (max_threads + 1, the Hyaline paper's size)
  // would hand off — and, under asymmetric fences, issue a heavy barrier —
  // every handful of retires, ~25x more often than the other schemes'
  // scan_threshold.  Align it with the same per-128-retires calibration
  // (never below the auto size).
  scfg.batch_capacity = std::max(cfg.threads + 1u,
                                 static_cast<unsigned>(scfg.scan_threshold));
  scfg.track_stats = cfg.sample_memory;
  scfg.asymmetric_fences = cfg.asymmetric_fences;
  scfg.background_reclaim = cfg.background_reclaim;
  scfg.reclaim_interval_us = cfg.reclaim_interval_us;
  scfg.memory_target = cfg.memory_target;
  return scfg;
}

// Harness bucket heuristic for HashMap cells.
inline std::size_t bucket_count_for(const CaseConfig& cfg) {
  return cfg.hash_buckets != 0
             ? cfg.hash_buckets
             : std::max<std::size_t>(1, cfg.key_range / 8);
}

// The CaseResult counter an op lands in.  Container pushes count as
// inserts and pops as removes; containers have no reads.
enum class Op { kRead, kInsert, kRemove };

// One measured run.  The driver `d` supplies
//   d.target                 the facade: session(), pending_nodes(),
//                            restarts(), recoveries()
//   d.prefill(s, rng, t)     prefill thread t's share, through session s
//   d.worker(t)              worker t's step state w, with
//     w.draw(rng, i) -> Op   draw op i (untimed; touches no structure)
//     w.apply(s, op)         run it through session s (timed when sampled)
template <class Driver>
CaseResult run_measured(Driver& d, const CaseConfig& cfg,
                        std::uint64_t run_seed) {
  auto& target = d.target;
  {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ts.emplace_back([&, t] {
        if (cfg.pin_threads) pin_this_thread(t);
        auto session = target.session();  // joins the domain for this worker
        Xoshiro256 rng(run_seed * 0x51ed2701 + t);
        d.prefill(session, rng, t);
      });
    }
    for (auto& th : ts) th.join();
  }

  struct OpCounts {
    std::uint64_t ops = 0;
    std::uint64_t by_op[3] = {};  // indexed by Op
  };
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<OpCounts> counts(cfg.threads);
  // One latency histogram per worker (single-writer during the run), merged
  // after join — no synchronisation on the measured path beyond two clock
  // reads per sampled op.
  std::vector<obs::LatencyHistogram> latency(cfg.threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin_threads) pin_this_thread(t);
      // Session per worker: the handle is resolved once at join, so the
      // measured loop pays no tid lookup at all.
      auto session = target.session();
      auto w = d.worker(t);
      Xoshiro256 rng(run_seed * 0x9e3779b9 + 1000003ULL * t);
      obs::LatencyHistogram& hist = latency[t];
      const unsigned lat_every = cfg.latency_sample_every;
      const std::uint64_t budget = cfg.op_budget;
      OpCounts c;
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      for (;;) {
        if (budget != 0) {
          if (c.ops >= budget) break;
        } else if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        const Op op = w.draw(rng, c.ops);
        const bool timed_op = lat_every != 0 && c.ops % lat_every == 0;
        const std::uint64_t op_t0 = timed_op ? now_ns() : 0;
        w.apply(session, op);
        if (timed_op) hist.record(now_ns() - op_t0);
        ++c.by_op[static_cast<int>(op)];
        ++c.ops;
      }
      counts[t] = c;
    });
  }

  // Memory-overhead sampler (Figures 10-12): average/peak of the pending
  // gauge, sampled every 2 ms.
  std::atomic<bool> sampler_stop{false};
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  std::int64_t pending_peak = 0;
  std::thread sampler;
  if (cfg.sample_memory) {
    sampler = std::thread([&] {
      while (!sampler_stop.load(std::memory_order_relaxed)) {
        const std::int64_t p = target.pending_nodes();
        pending_sum += static_cast<double>(p);
        ++pending_samples;
        pending_peak = std::max(pending_peak, p);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (cfg.op_budget == 0) {  // timed run; a budget run stops by itself
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.millis));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& w : workers) w.join();
  const std::uint64_t t1 = now_ns();
  if (cfg.sample_memory) {
    sampler_stop.store(true, std::memory_order_relaxed);
    sampler.join();
  }

  CaseResult r;
  r.seconds = ns_to_sec(t1 - t0);
  for (const OpCounts& c : counts) {
    r.total_ops += c.ops;
    r.reads += c.by_op[static_cast<int>(Op::kRead)];
    r.inserts += c.by_op[static_cast<int>(Op::kInsert)];
    r.removes += c.by_op[static_cast<int>(Op::kRemove)];
  }
  r.mops = static_cast<double>(r.total_ops) / r.seconds / 1e6;
  if (r.total_ops > 0)
    r.ns_per_op = r.seconds * 1e9 / static_cast<double>(r.total_ops);
  if (pending_samples > 0)
    r.avg_pending = pending_sum / static_cast<double>(pending_samples);
  r.peak_pending = pending_peak;
  r.restarts = target.restarts();
  r.recoveries = target.recoveries();
  obs::LatencyHistogram merged;
  for (const auto& h : latency) merged.merge(h);
  if (merged.count() > 0) {
    r.p50_ns = static_cast<double>(merged.percentile(50.0));
    r.p99_ns = static_cast<double>(merged.percentile(99.0));
    r.p999_ns = static_cast<double>(merged.percentile(99.9));
  }
  return r;
}

// Key choice and read/insert/remove roll shared by the map and kv drivers:
// one key draw, then one roll, per op.  The Zipfian state is shared
// read-only by the workers; each keeps its own RNG, so the stream stays
// deterministic per (seed, thread).
class KeyedMix {
 public:
  explicit KeyedMix(const CaseConfig& cfg) : cfg_(cfg) {
    if (cfg.key_dist == KeyDist::kZipfian)
      zipf_.emplace(cfg.key_range, cfg.zipf_theta);
  }

  Op draw(Xoshiro256& rng, std::uint64_t& key) const {
    // rank+1: the SplitMix64 finalizer has a fixed point at 0, which would
    // pin the hottest rank to key 0 at the head of the list.
    key = zipf_ ? scramble(zipf_->next(rng) + 1) % cfg_.key_range
                : rng.next_in(cfg_.key_range);
    const auto roll = static_cast<int>(rng.next_in(100));
    if (roll < cfg_.read_pct) return Op::kRead;
    return roll < cfg_.read_pct + cfg_.insert_pct ? Op::kInsert : Op::kRemove;
  }

 private:
  const CaseConfig& cfg_;
  std::optional<Zipf> zipf_;
};

// Integer-keyed maps.  Prefill inserts unique keys up to 50% of the range,
// always drawn uniformly: the key *distribution* shapes which keys the
// measured phase touches, not what the structure contains.
template <class MapLike>
struct MapDriver {
  MapLike& target;
  const CaseConfig& cfg;
  KeyedMix mix{cfg};
  std::atomic<std::uint64_t> inserted{0};

  void prefill(auto& session, Xoshiro256& rng, unsigned) {
    while (inserted.load(std::memory_order_relaxed) < cfg.key_range / 2) {
      const std::uint64_t k = rng.next_in(cfg.key_range);
      if (session.insert(k, k))
        inserted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  struct Worker {
    const KeyedMix& mix;
    std::uint64_t k = 0;
    Op draw(Xoshiro256& rng, std::uint64_t) { return mix.draw(rng, k); }
    void apply(auto& session, Op op) {
      switch (op) {
        case Op::kRead: session.contains(k); break;
        case Op::kInsert: session.insert(k, k); break;
        case Op::kRemove: session.erase(k); break;
      }
    }
  };
  Worker worker(unsigned) { return {mix}; }
};

// Queues push at the back and pop at the front, stacks do both at the
// front, deques pick the end per op.  Prefill pushes key_range/2 elements,
// like the maps.  With split_workload, even workers are pure producers and
// odd workers pure consumers (a lone worker falls back to the mixed roll
// so the case still terminates with ops > 0).
template <class ContainerLike>
struct ContainerDriver {
  ContainerLike& target;
  const CaseConfig& cfg;
  ContainerKind kind = container_kind(cfg.structure);
  std::atomic<std::uint64_t> pushed{0};

  void prefill(auto& session, Xoshiro256& rng, unsigned) {
    while (pushed.fetch_add(1, std::memory_order_relaxed) <
           cfg.key_range / 2) {
      const std::uint64_t v = rng.next();
      if (kind == ContainerKind::kStack) {
        session.push_front(v);
      } else {
        session.push_back(v);
      }
    }
  }

  struct Worker {
    ContainerKind kind;
    int insert_pct;
    bool split;
    bool producer;
    std::uint64_t v = 0;
    bool back = false;
    Op draw(Xoshiro256& rng, std::uint64_t i) {
      const std::uint64_t draw = rng.next();
      const bool push =
          split ? producer : static_cast<int>(draw % 100) < insert_pct;
      // For deques the low bits above decide the *mix*; use a different
      // bit for the end so the two choices stay uncorrelated.
      back = (draw >> 32) & 1;
      v = draw ^ (i << 1);
      return push ? Op::kInsert : Op::kRemove;
    }
    void apply(auto& session, Op op) {
      // Queues push at the back and pop at the front; stacks use the front.
      const bool at_back = kind == ContainerKind::kQueue
                               ? op == Op::kInsert
                               : kind == ContainerKind::kDeque && back;
      if (op == Op::kInsert) {
        if (at_back) {
          session.push_back(v);
        } else {
          session.push_front(v);
        }
      } else if (at_back) {
        session.pop_back();
      } else {
        session.pop_front();
      }
    }
  };
  Worker worker(unsigned t) {
    return {kind, cfg.insert_pct, cfg.split_workload && cfg.threads > 1,
            t % 2 == 0};
  }
};

// Fixed-width kv key: "user" + zero-padded decimal id, `len` bytes total.
// Width is what makes --key-len a real knob: every key compare walks the
// shared prefix before the digits diverge.
inline void make_kv_key(std::string& out, std::uint64_t id, std::size_t len) {
  char digits[24];
  const int n = std::snprintf(digits, sizeof(digits), "%llu",
                              static_cast<unsigned long long>(id));
  out.assign("user");
  const std::size_t body = len > 4 ? len - 4 : 1;
  if (static_cast<std::size_t>(n) < body)
    out.append(body - static_cast<std::size_t>(n), '0');
  out.append(digits, static_cast<std::size_t>(n));
}

// String-keyed serving shards: the map roll with YCSB's put()
// (update-or-insert) as the write, 16-byte keys and 128-byte values unless
// cfg says otherwise.  Prefill loads the FULL key range, striped across the
// workers — YCSB runs against a loaded store, and a 50% prefill would turn
// half of ycsb-a's updates into inserts and resize the shards
// mid-measurement.
template <class KvLike>
struct KvDriver {
  KvLike& target;
  const CaseConfig& cfg;
  KeyedMix mix{cfg};
  std::size_t key_len = cfg.key_len == 0 ? 16 : cfg.key_len;
  std::string value = std::string(cfg.value_size == 0 ? 128 : cfg.value_size,
                                  'v');

  void prefill(auto& session, Xoshiro256&, unsigned t) {
    std::string key;
    for (std::uint64_t k = t; k < cfg.key_range; k += cfg.threads) {
      make_kv_key(key, k, key_len);
      session.put(key, value);
    }
  }

  struct Worker {
    const KvDriver& d;
    std::string key{}, out{};  // reused across ops
    Op draw(Xoshiro256& rng, std::uint64_t) {
      std::uint64_t k = 0;
      const Op op = d.mix.draw(rng, k);
      make_kv_key(key, k, d.key_len);
      return op;
    }
    void apply(auto& session, Op op) {
      switch (op) {
        case Op::kRead: session.get(key, &out); break;
        case Op::kInsert: session.put(key, d.value); break;
        case Op::kRemove: session.erase(key); break;
      }
    }
  };
  Worker worker(unsigned) { return {*this}; }
};

// Median of cfg.runs fresh runs.
template <class Runner>
CaseResult median_of_runs(const CaseConfig& cfg, Runner&& one_run) {
  std::vector<CaseResult> results;
  results.reserve(cfg.runs);
  for (unsigned i = 0; i < cfg.runs; ++i)
    results.push_back(one_run(cfg.seed + i));
  std::sort(results.begin(), results.end(),
            [](const CaseResult& a, const CaseResult& b) {
              return a.mops < b.mops;
            });
  return results[results.size() / 2];  // median run
}

}  // namespace detail

}  // namespace scot::bench
