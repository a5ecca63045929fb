// perfbench: the repository benchmark.  Shared declarations for the
// workload definitions, the seeded input generator, the worker pool, the
// per-cell result record and the in-memory span recorder.
//
// One run = one workload × the five schemes the paper's abstract names.
// Every (workload, scheme) cell gets a fresh structure, a prefill, an
// unrecorded warm-up and a measured phase (cell.hpp); main.cpp repeats the
// cells, takes medians and prints the metrics.  README.md in this
// directory has the full protocol.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace perfbench {

using scot::SchemeId;

// --- workloads --------------------------------------------------------------

enum class Op : std::uint8_t { kRead = 0, kInsert = 1, kErase = 2 };
inline constexpr unsigned kOpKinds = 3;

enum class Family : std::uint8_t { kList, kTree, kKv };

struct WorkloadSpec {
  const char* name;
  Family family;
  std::uint64_t key_range;
  std::uint64_t prefill;  // distinct keys inserted (or loaded) before the run
  unsigned read_pct;
  unsigned insert_pct;    // erase share = 100 - read - insert
  bool zipfian;           // theta 0.99 over the key range; uniform otherwise
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"list-read", Family::kList, 512, 256, 90, 5, false},
    {"tree-update", Family::kTree, 100000, 50000, 50, 25, false},
    {"kv-serve", Family::kKv, 100000, 100000, 95, 5, true},
};

// The schemes every workload gates (the paper abstract's five); NR only
// runs in the traced run, as the structure-cost floor.
inline constexpr SchemeId kGatedSchemes[] = {SchemeId::kEBR, SchemeId::kHP,
                                             SchemeId::kHE, SchemeId::kIBR,
                                             SchemeId::kHLN};
inline constexpr unsigned kSchemeCount = 5;

// --- generated inputs -------------------------------------------------------

// Everything the structures receive is generated here from the seed: the
// prefill keys (distinct, in insertion order) and one operation stream per
// worker.  A stream entry packs `key << 2 | op`; workers walk their stream
// cyclically, so the stream length bounds memory, not the run length.
inline constexpr std::size_t kStreamLen = std::size_t{1} << 20;

struct Inputs {
  std::vector<std::uint64_t> prefill;
  std::vector<std::vector<std::uint64_t>> streams;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   unsigned workers);
// Order-sensitive hash of a key or op sequence, chained through `h` (the
// self-tests compare digests of the prefill and of the op streams).
std::uint64_t digest(const std::vector<std::uint64_t>& values,
                     std::uint64_t h = 0xcbf29ce484222325ULL);

inline Op op_of(std::uint64_t e) noexcept { return static_cast<Op>(e & 3); }
inline std::uint64_t key_of(std::uint64_t e) noexcept { return e >> 2; }

// Worker count of the closed loop: one less than the CPUs this process may
// run on, so the sampling main thread never oversubscribes them.
unsigned worker_count();

// The reclamation configuration every cell and probe uses: the paper's
// calibration (scan every 128 retires, era tick every 12 x threads),
// asymmetric fences on, background reclaimer off, telemetry on (the pending
// gauge and the StatsSnapshot counters are metrics here).
scot::SmrConfig bench_smr_config(unsigned workers);

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- spans ------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kCell,     // one (workload, scheme) cell, construction to teardown
  kSetup,    // construct + prefill / load
  kJoin,     // Session / scoped_handle construction
  kLeave,    // Session / scoped_handle release
  kRun,      // warm-up + measured phase (counter deltas attached)
  kRead,     // one structure / store call
  kInsert,
  kErase,
  kProbe,    // one timed layer probe trial
};

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  const char* label;     // static string (scheme or probe name), may be null
  SpanKind kind;
  std::uint8_t thread;   // 0 = main thread, 1.. = workers
};

// In-memory span store: one buffer per thread, each written only by its
// owner, merged and written out (Chrome trace JSON) when the run ends.  Op
// spans are capped per buffer so a long run keeps bounded memory; every
// op is still timed, the cap only limits what is kept verbatim.
class Tracer {
 public:
  static constexpr std::size_t kOpSpanCap = 1u << 14;

  explicit Tracer(unsigned threads);

  // Opens a span on `thread` (only that thread may call) and returns its
  // id, so children can name it as their parent before it closes.
  std::uint32_t open(unsigned thread, SpanKind kind, std::uint32_t parent,
                     const char* label = nullptr);
  void close(std::uint32_t id);
  // Op spans are recorded whole; dropped once the thread's cap is reached.
  void record_op(unsigned thread, SpanKind kind, std::uint64_t start,
                 std::uint64_t end, std::uint32_t parent);
  // A named counter delta measured at a span's boundaries (main thread).
  void counter(std::uint32_t span, const char* name, double value);

  bool write_chrome_json(const std::string& path) const;

 private:
  struct alignas(64) Buffer {
    std::vector<Span> spans;
    std::size_t op_spans = 0;
    std::uint64_t dropped = 0;
  };
  std::uint32_t push(unsigned thread, const Span& s);
  struct CounterRec {
    std::uint32_t span;
    const char* name;
    double value;
  };
  std::vector<Buffer> buffers_;
  std::vector<CounterRec> counters_;
};

// RAII span on `thread`; a null tracer makes it a no-op with id 0.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, unsigned thread, SpanKind kind, std::uint32_t parent,
             const char* label = nullptr)
      : tr_(tr), id_(tr != nullptr ? tr->open(thread, kind, parent, label) : 0) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  void close() {
    if (tr_ != nullptr) tr_->close(id_);
    tr_ = nullptr;
  }

 private:
  Tracer* tr_;
  std::uint32_t id_;
};

// --- worker pool --------------------------------------------------------------

// The closed loop's worker threads, created once per run so no phase pays
// thread start-up.  start() hands every worker fn(t); wait() blocks until
// all returned and rethrows the first exception a worker raised.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned n);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned size() const noexcept { return n_; }
  void start(std::function<void(unsigned)> fn);
  void wait();
  void run(std::function<void(unsigned)> fn) {
    start(std::move(fn));
    wait();
  }

 private:
  void loop(unsigned t);

  const unsigned n_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::function<void(unsigned)> job_;
  std::uint64_t generation_ = 0;
  unsigned busy_ = 0;
  bool quit_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: started after the state above
};

// --- one cell ---------------------------------------------------------------

struct CellPlan {
  SchemeId scheme;
  double warmup_s;
  double measure_s;
  bool traced;
  bool corrupt;  // self-test: drop one successful prefill insert from the tally
};

struct CellResult {
  double setup_s = 0;            // construct + prefill / load
  std::uint64_t measured_ops = 0;
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t latency_samples = 0;
  double unreclaimed_avg = 0;    // mean pending_nodes(), sampled every 2 ms
  std::uint64_t attempted = 0;   // prefill + warm-up + measured operations
  std::uint64_t failed = 0;

  // Layer telemetry, quiescent deltas from after the prefill to after the
  // run (warm-up + measured ops are the denominator, `run_ops`).
  std::uint64_t run_ops = 0;
  std::uint64_t restarts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t retires = 0;
  std::uint64_t scans = 0;
  std::uint64_t heavy_barriers = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t limbo_peak = 0;  // cumulative high-water mark of the cell
  double scan_p99_us = 0;        // cumulative over the cell's scans
  std::uint64_t gets = 0;        // read ops of the measured phase
  std::uint64_t get_hits = 0;
  std::uint64_t migrated_buckets = 0;  // kv: after the load

  // Traced cells only: median duration of each op kind and of all ops.
  std::array<double, kOpKinds> op_median_ns{};
  double all_median_ns = 0;
};

struct CellContext {
  const WorkloadSpec* spec;
  const Inputs* inputs;
  WorkerPool* pool;
  Tracer* tracer;  // written by traced cells only
  scot::SmrConfig smr;
};

CellResult run_list_cell(const CellContext& ctx, const CellPlan& plan);
CellResult run_tree_cell(const CellContext& ctx, const CellPlan& plan);
CellResult run_kv_cell(const CellContext& ctx, const CellPlan& plan);

// --- layer probes (probes.cpp) ----------------------------------------------

struct SchemeProbes {
  double protect_chase_ns = 0;  // per node of a dependent 256-node chase
  double begin_end_op_ns = 0;   // one begin_op + end_op pair
  double retire_ns = 0;         // alloc + retire inside one op, scans included
};
SchemeProbes run_scheme_probes(SchemeId s, const scot::SmrConfig& cfg,
                               Tracer* tr);
double probe_pool_alloc_free_ns(Tracer* tr);

// Median of a small sample (by value; sorts its copy).
double median(std::vector<double> v);

}  // namespace perfbench
