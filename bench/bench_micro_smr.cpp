// Microbenchmarks of the SMR primitives: the per-node cost of a protected
// pointer chase, and the per-call cost of dup / begin+end / alloc+retire
// for every scheme; plus kv_hash/16, the per-key routing hash every kv op
// pays whatever the scheme.  These expose the mechanism behind the
// figure-level results: HP pays a fence per protect on the fence path, HE
// amortizes it per era change, IBR/Hyaline make dup free, and HPopt's
// snapshot scan beats HP's per-node rescan on retire-heavy loads.
//
// Two modes:
//  * default           — the google-benchmark suite.  chase/* is the
//                        structure-shaped cell: a hand-over-hand walk of 128
//                        nodes of a 256-node ring linked in random order,
//                        each node doing the Harris list's safe-zone steps
//                        through a TraversalGuard (items/s = nodes walked).
//                        It takes an Arg: 1 = asymmetric fences, 0 = the
//                        fence path (a seq_cst fence per publication).
//  * --json <path>     — two fixed-iteration latency sweeps per (scheme,
//                        fence discipline), measured in ns and TSC cycles
//                        and written as scot-bench v1 cells (bench
//                        "micro_smr", structure "none"):
//                          protect-latency   — the chase/* walk, per node
//                                              visited (the fenced vs.
//                                              asymmetric A/B)
//                          begin_op-latency  — operation activation: one
//                                              begin_op + first protect +
//                                              end_op per iteration, the
//                                              era-scheme read-side cost
//                                              the asymmetric activation
//                                              discipline lifts.
//                        google-benchmark flags are not accepted in this
//                        mode.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/report/report.hpp"
#include "common/asymfence.hpp"
#include "common/timing.hpp"
#include "common/xorshift.hpp"
#include "core/core.hpp"
#include "kv/kv_hash_map.hpp"

namespace {

using namespace scot;

struct ProbeNode : ReclaimNode {
  std::uint64_t payload = 0;
};

struct ChaseNode : ReclaimNode {
  StableAtomic<marked_ptr<ChaseNode>> next;
};

// A 256-node ring whose links jump around the pool, so every protect
// depends on the load before it.  walk() is one operation of the Harris
// list's per-node safe-zone steps (harris_list.hpp: rename the roles, then
// protect next) over kWalk nodes, resuming where the last one stopped.
template <class Smr>
class ChaseRing {
 public:
  static constexpr std::size_t kRing = 256;
  static constexpr int kWalk = 128;

  explicit ChaseRing(typename Smr::Handle& h) : h_(h) {
    for (std::size_t i = 0; i < kRing; ++i)
      ring_.push_back(h.template alloc<ChaseNode>());
    Xoshiro256 rng(kRing);
    for (std::size_t i = kRing - 1; i > 0; --i)
      std::swap(ring_[i], ring_[rng.next_in(i + 1)]);
    for (std::size_t i = 0; i < kRing; ++i)
      ring_[i]->next.store(MP(ring_[(i + 1) % kRing]),
                           std::memory_order_release);
    from_ = &ring_.back()->next;
  }
  ~ChaseRing() {
    for (ChaseNode* n : ring_) h_.dealloc_unpublished(n);
  }
  ChaseRing(const ChaseRing&) = delete;
  ChaseRing& operator=(const ChaseRing&) = delete;

  void walk() {
    TraversalGuard<typename Smr::Handle> g(h_);
    auto next = g.template slot<ChaseNode>();
    auto curr = g.template slot<ChaseNode>();
    auto prev = g.template slot<ChaseNode>();
    Protected<ChaseNode> n = next.protect(*from_);
    for (int i = 0; i < kWalk; ++i) {
      prev.rotate_roles(curr, next);
      n = next.protect(n->next);
    }
    from_ = &n->next;
  }

 private:
  using MP = marked_ptr<ChaseNode>;
  typename Smr::Handle& h_;
  std::vector<ChaseNode*> ring_;
  const StableAtomic<MP>* from_ = nullptr;
};

// --- google-benchmark suite -------------------------------------------------

// One slot copy: the per-node step of the traversals that still copy
// protections (NMTree and the simple Harris list ablation).
template <class Smr>
void BM_Dup(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  (void)h.protect(src, 0);
  for (auto _ : state) {
    h.dup(0, 1);
  }
  h.end_op();
  h.dealloc_unpublished(n);
}

// Arg: 1 = asymmetric fences, 0 = the fence path.
template <class Smr>
void BM_Chase(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = state.range(0) != 0;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  ChaseRing<Smr> ring(sh.get());
  for (auto _ : state) ring.walk();
  state.SetItemsProcessed(state.iterations() * ChaseRing<Smr>::kWalk);
}

template <class Smr>
void BM_BeginEndOp(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (auto _ : state) {
    h.begin_op();
    h.end_op();
  }
}

template <class Smr>
void BM_AllocRetire(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.scan_threshold = 128;  // paper calibration
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (auto _ : state) {
    auto* n = h.template alloc<ProbeNode>();
    h.retire(n);
  }
}

// kv_hash over 16-byte keys shaped like perfbench kv-serve's ("user" + 12
// digits).  Each hash picks the next key, so the cell is the hash's latency
// on an op's critical path, not the throughput of overlapped hashes
// (items/s = keys hashed).
void BM_KvHash16(benchmark::State& state) {
  constexpr std::size_t kKeys = 1024;
  std::vector<char> keys(kKeys * 16 + 1);
  for (std::size_t i = 0; i < kKeys; ++i)
    std::snprintf(keys.data() + i * 16, 17, "user%012zu", i * 7919);
  std::uint64_t h = 0;
  for (auto _ : state) {
    h = kv_hash(std::string_view(keys.data() + (h % kKeys) * 16, 16));
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvHash16)->Name("kv_hash/16");

#define SCOT_REGISTER_SCHEME(scheme)                                   \
  BENCHMARK(BM_Dup<scheme>)->Name("dup/" #scheme);                     \
  BENCHMARK(BM_Chase<scheme>)->Name("chase/" #scheme)->Arg(1)->Arg(0); \
  BENCHMARK(BM_BeginEndOp<scheme>)->Name("op/" #scheme);               \
  BENCHMARK(BM_AllocRetire<scheme>)->Name("alloc_retire/" #scheme)

SCOT_REGISTER_SCHEME(NoReclaimDomain);
SCOT_REGISTER_SCHEME(EbrDomain);
SCOT_REGISTER_SCHEME(HpDomain);
SCOT_REGISTER_SCHEME(HpOptDomain);
SCOT_REGISTER_SCHEME(HeDomain);
SCOT_REGISTER_SCHEME(IbrDomain);
SCOT_REGISTER_SCHEME(HyalineDomain);

// --- protect-latency sweep (--json mode) ------------------------------------

inline std::uint64_t read_tsc() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return 0;  // cycles_per_op reported as 0 on non-TSC targets
#endif
}

struct LatencySample {
  double seconds = 0;
  double ns_per_op = 0;
  double cycles_per_op = 0;
  std::uint64_t iters = 0;
};

// Warmup + timed loop (ns and TSC) around a measured call that does
// `units` units of work (nodes visited, operations); results are per unit.
// Both sweeps share this scaffolding so their cells stay comparable: any
// change to the iteration counts or the cycle accounting applies to both.
template <class Body>
LatencySample measure_loop(Body&& body, std::uint64_t units = 1) {
  constexpr std::uint64_t kWarmup = 1u << 14;  // units
  constexpr std::uint64_t kUnits = 1u << 21;   // ~2M units per sample
  for (std::uint64_t i = 0; i < kWarmup / units; ++i) body();
  const std::uint64_t calls = kUnits / units;
  const std::uint64_t c0 = read_tsc();
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < calls; ++i) body();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t c1 = read_tsc();

  LatencySample s;
  s.iters = calls * units;
  const auto n = static_cast<double>(s.iters);
  s.seconds = ns_to_sec(t1 - t0);
  s.ns_per_op = static_cast<double>(t1 - t0) / n;
  s.cycles_per_op = c1 > c0 ? static_cast<double>(c1 - c0) / n : 0.0;
  return s;
}

// The chase/* walk, per node visited.
template <class Smr>
LatencySample measure_protect(bool asym) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = asym;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  ChaseRing<Smr> ring(sh.get());
  return measure_loop([&] { ring.walk(); }, ChaseRing<Smr>::kWalk);
}

// Operation activation: begin_op + the operation's first protect + end_op.
// The first protect is part of the measurement deliberately — HE (and HP)
// have an empty begin_op and only become visible to reclaimers at their
// first slot publish, so begin_op alone would measure zero for exactly the
// scheme whose activation store the asymmetric discipline relaxes.
template <class Smr>
LatencySample measure_activation(bool asym) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = asym;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  const LatencySample s = measure_loop([&] {
    h.begin_op();
    benchmark::DoNotOptimize(h.protect(src, 0));
    h.end_op();
  });
  h.dealloc_unpublished(n);
  return s;
}

void record_sample(bench::BenchReport& report, const char* label,
                   bench::SchemeId id, bool asym, const LatencySample& s,
                   const char* unit) {
  using bench::CaseConfig;
  using bench::CaseResult;
  CaseConfig cfg;
  cfg.structure = bench::StructureId::kNone;
  cfg.scheme = id;
  cfg.threads = 1;
  cfg.key_range = 0;
  cfg.read_pct = 100;
  cfg.insert_pct = 0;
  cfg.delete_pct = 0;
  cfg.millis = 0;
  cfg.op_budget = s.iters;
  cfg.asymmetric_fences = asym;
  CaseResult r;
  r.total_ops = s.iters;
  r.seconds = s.seconds;
  r.mops = static_cast<double>(s.iters) / s.seconds / 1e6;
  r.ns_per_op = s.ns_per_op;
  r.cycles_per_op = s.cycles_per_op;
  report.add("micro_smr", label, cfg, r);
  std::printf("  %-6s %-9s %8.2f ns/%s %9.1f cycles\n",
              bench::scheme_name(id), asym ? "asym" : "fenced", s.ns_per_op,
              unit, s.cycles_per_op);
}

int run_latency_sweep(const std::string& json_path) {
  bench::BenchReport report;
  std::printf("   fence path when asymmetric: %s\n",
              asymfence::runtime_path_name());
  std::printf(
      "== protect-latency (256-node random-ring chase, per node visited): "
      "fenced vs. asymmetric ==\n");
  for (const bench::SchemeId id : kAllSchemes) {
    with_scheme(id, [&]<class Smr>() {
      for (const bool asym : {true, false})
        record_sample(report, "protect-latency", id, asym,
                      measure_protect<Smr>(asym), "node");
    });
  }
  std::printf(
      "== begin_op-latency (activation: begin_op + first protect + end_op) "
      "==\n");
  for (const bench::SchemeId id : kAllSchemes) {
    with_scheme(id, [&]<class Smr>() {
      for (const bool asym : {true, false})
        record_sample(report, "begin_op-latency", id, asym,
                      measure_activation<Smr>(asym), "op");
    });
  }
  std::string error;
  if (!report.write_file(json_path, &error)) {
    std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %zu cell(s) to %s\n", report.cells().size(),
              json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Our flags are peeled off by hand (extract_bench_flags would reject the
  // --benchmark_* flags google-benchmark owns in the default mode).
  std::string json_path;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    if (rest.size() > 1) {
      std::fprintf(stderr,
                   "%s: --json mode takes no other arguments (got '%s')\n",
                   argv[0], rest[1]);
      return 2;
    }
    return run_latency_sweep(json_path);
  }
  int bench_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&bench_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
