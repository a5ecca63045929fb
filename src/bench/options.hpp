// Benchmark-harness configuration shared by bench_cli and scot_figs.
//
// Scheme/structure identity — the enums, the name tables, and the reverse
// lookups — lives in the library's runtime registries (src/smr/registry.hpp
// and src/core/registry.hpp) since API v2; this header re-exports them into
// scot::bench so every pre-v2 spelling keeps compiling.  The registries are
// the single source of truth: options_test asserts the CLI resolves
// through them.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot::bench {

using scot::SchemeId;
using scot::StructureId;
using scot::kAllSchemes;
using scot::kAllStructures;
using scot::scheme_from_name;
using scot::scheme_name;
using scot::structure_from_mode;
using scot::structure_from_name;
using scot::structure_name;

// Key-access distribution of the measured phase.  Prefill always inserts
// uniformly (structure *contents* cover the range either way); the
// distribution shapes which keys the workers touch.
enum class KeyDist { kUniform, kZipfian };

inline const char* key_dist_name(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipfian: return "zipfian";
  }
  return "?";
}

inline std::optional<KeyDist> key_dist_from_name(std::string_view name) {
  if (name == "uniform") return KeyDist::kUniform;
  if (name == "zipfian" || name == "zipf") return KeyDist::kZipfian;
  return std::nullopt;
}

// Named read/insert/delete mixes for the common scenarios; "mixed" is the
// paper's headline workload.
struct WorkloadMix {
  int read_pct;
  int insert_pct;
  int delete_pct;
  bool operator==(const WorkloadMix&) const = default;
};

inline std::optional<WorkloadMix> preset_from_name(std::string_view name) {
  if (name == "mixed") return WorkloadMix{50, 25, 25};
  if (name == "read-mostly") return WorkloadMix{90, 5, 5};
  if (name == "write-heavy") return WorkloadMix{10, 45, 45};
  // YCSB-shaped serving mixes (scot_figs kv).  The middle component is the
  // write share: the kv harness issues it as put() (update-or-insert), the
  // integer-keyed grids as insert.  YCSB A/B/C have no deletes.
  if (name == "ycsb-a") return WorkloadMix{50, 50, 0};
  if (name == "ycsb-b") return WorkloadMix{95, 5, 0};
  if (name == "ycsb-c") return WorkloadMix{100, 0, 0};
  return std::nullopt;
}

struct CaseConfig {
  StructureId structure = StructureId::kHList;
  SchemeId scheme = SchemeId::kEBR;
  unsigned threads = 1;
  std::uint64_t key_range = 512;
  int read_pct = 50;    // remainder split between insert and delete
  int insert_pct = 25;
  int delete_pct = 25;
  int millis = 300;
  bool sample_memory = false;
  unsigned runs = 1;  // median-of-runs (the paper uses 5)
  std::uint64_t seed = 42;
  std::size_t hash_buckets = 0;  // HashMap only; 0 = key_range / 8
  KeyDist key_dist = KeyDist::kUniform;
  double zipf_theta = 0.99;      // skew when key_dist == kZipfian; 0 < θ < 1
  bool pin_threads = false;      // pin worker t to CPU t % hw_concurrency
  std::uint64_t op_budget = 0;   // per-thread op count; 0 = timed (millis).
                                 // With a budget and a fixed seed, a run is
                                 // bit-reproducible (see bench_determinism_test).
  bool asymmetric_fences = true; // SmrConfig::asymmetric_fences for the run's
                                 // domain; --no-asym turns it off for A/B
                                 // comparison against the symmetric
                                 // (per-publication fence) path.
  unsigned latency_sample_every = 16;  // per-op latency sampling stride: time
                                       // every Nth op into a log-bucketed
                                       // histogram (obs/histogram.hpp) and
                                       // report p50/p99/p999.  0 disables
                                       // sampling (percentiles report as 0).
  // Background reclamation (DESIGN.md §9): hand retire batches to a
  // per-domain service thread instead of scanning inline.  Defaults to the
  // SCOT_BG environment opt-in so existing invocations are unchanged;
  // --bg/--no-bg override per run.
  bool background_reclaim = smr_config_detail::bg_reclaim_default();
  unsigned reclaim_interval_us = 100;   // --reclaim-interval-us <n>
  std::uint64_t memory_target = 0;      // --memory-target <nodes>; 0 = off
  // Serving-layer (scot_figs kv) shape.  0 means "not a kv case": the fields
  // stay out of cell keys and JSON diffs for the integer-keyed grids,
  // so pre-v4 baselines keep diffing clean.
  std::size_t value_size = 0;   // --value-size <bytes>: kv value payload
  std::size_t key_len = 0;      // --key-len <bytes>: kv key width (padded)
  unsigned kv_shards = 0;       // --shards <n>: KvStore shard count
  // Container (queue/stack/deque) cases only: --split pins each worker to
  // one role — even workers push, odd workers pop — instead of the
  // per-op insert/delete roll.  Ignored (and absent from cell keys) for
  // map/kv cases, so pre-v5 baselines keep diffing clean.
  bool split_workload = false;
};

struct CaseResult {
  double mops = 0;  // million operations per second (median run)
  std::uint64_t total_ops = 0;
  double seconds = 0;
  double ns_per_op = 0;      // derived: seconds / total_ops (0 if no ops)
  double cycles_per_op = 0;  // micro-SMR cells only (TSC); 0 elsewhere
  double avg_pending = 0;  // mean not-yet-reclaimed nodes over samples
  std::int64_t peak_pending = 0;
  std::uint64_t restarts = 0;
  std::uint64_t recoveries = 0;
  // Attempted-operation mix of the (median) run; deterministic for a fixed
  // seed when op_budget != 0 and runs == 1.
  std::uint64_t reads = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  // Sampled per-operation latency percentiles (schema v2; 0 when sampling
  // is off).  Bucket midpoints of the merged worker histograms, so values
  // carry the ≤6.25% relative bucket error documented in obs/histogram.hpp.
  double p50_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
};

// --- paper-artifact CLI (Appendix A.5) ------------------------------------
//
//     <mode> <seconds> <keyrange> <runs> <read%> <ins%> <del%> <SCHEME>
//     <threads>
//
// Modes: listlf listwf listhm tree hash skip skiphs (maps) and queue stack
// deque (containers).  Parsing is strict: every numeric field must be a
// whole decimal number, the workload mix must sum to 100, and
// seconds/keyrange/runs/threads must be positive.  Container modes have no
// read operation, so <read%> must be 0 for them — <ins%> is the push share
// and <del%> the pop share ("50 50" is the balanced mix); <keyrange>
// doubles as the prefill size (keyrange/2 elements, like the maps).

inline constexpr const char* kCliUsage =
    "<listlf|listwf|listhm|tree|hash|skip|skiphs|queue|stack|deque> "
    "<seconds> <keyrange> "
    "<runs> <read%> <ins%> <del%> <NR|EBR|HP|HPopt|HE|IBR|HLN> <threads>";

// Upper bound on a run's thread count, on the command line and in
// SCOT_BENCH_THREADS alike: every domain allocates per-thread state arrays
// sized by max_threads, so a huge-but-representable count is a memory bomb
// rather than merely slow.
inline constexpr long long kMaxThreads = 4096;

// Whole-string decimal parse; rejects "", " 42", "4x", "1.5", overflow.
inline bool parse_decimal(std::string_view sv, long long& out) {
  if (sv.empty()) return false;
  if (sv.front() != '-' && (sv.front() < '0' || sv.front() > '9'))
    return false;  // strtoll would silently skip leading whitespace
  const std::string s(sv);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

// Whole-string floating-point parse; rejects "", "1x", "0x1p3"-style
// surprises the same way parse_decimal does.
inline bool parse_double(std::string_view sv, double& out) {
  if (sv.empty()) return false;
  if (sv.front() != '-' && sv.front() != '.' &&
      (sv.front() < '0' || sv.front() > '9'))
    return false;  // strtod would skip leading whitespace / accept "inf"
  if (sv.find('x') != std::string_view::npos ||
      sv.find('X') != std::string_view::npos)
    return false;  // ... or accept C99 hex floats like "0x.8p0"
  const std::string s(sv);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

// --- optional flags shared by bench_cli and scot_figs ----------------------
//
// bench_cli takes these in addition to its positional arguments, scot_figs
// in addition to its figure name.  Unknown "--" tokens are a hard error: a
// misspelled flag must never be silently ignored.

struct BenchFlags {
  std::uint64_t seed = 42;             // --seed <n>
  std::string json_path;               // --json <path>; empty = no sink
  std::optional<KeyDist> dist;         // --dist uniform|zipfian; unset =
                                       // uniform (zipfian for kv cases)
  double zipf_theta = 0.99;            // --theta <0<θ<1>
  std::optional<WorkloadMix> preset;   // --preset <name> (preset_from_name)
  bool pin = false;                    // --pin: worker-thread CPU affinity
  std::uint64_t op_budget = 0;         // --ops <per-thread count>; 0 = timed
  bool asym = true;                    // --no-asym: per-publication fences
  bool bg = smr_config_detail::bg_reclaim_default();
                                       // --bg/--no-bg: background reclaimer
  unsigned reclaim_interval_us = 100;  // --reclaim-interval-us <n>
  std::uint64_t memory_target = 0;     // --memory-target <nodes>; 0 = off
  std::size_t value_size = 0;          // --value-size <bytes>; 0 = the
                                       // kv default (kv cases only)
  std::size_t key_len = 0;             // --key-len <bytes>; 0 = default
  unsigned kv_shards = 0;              // --shards <n>; 0 = the kv grid's
  bool split = false;                  // --split: producer/consumer roles
                                       // (container cases only)
  bool help = false;                   // --help seen; caller prints usage
};

inline constexpr const char* kFlagUsage =
    "[--seed <n>] [--json <path>] [--dist uniform|zipfian] [--theta <0..1>] "
    "[--preset mixed|read-mostly|write-heavy|ycsb-a|ycsb-b|ycsb-c] [--pin] "
    "[--ops <n>] [--no-asym|--asym] [--bg|--no-bg] "
    "[--reclaim-interval-us <n>] [--memory-target <nodes>] "
    "[--value-size <bytes>] [--key-len <bytes>] [--shards <n>] [--split] "
    "[--help]";

// Removes the recognised --flags (and their values) from `args`, leaving
// positional arguments in place.  Returns false with a one-line `error` on
// an unknown flag, a missing value, or a malformed value.
inline bool extract_bench_flags(std::vector<std::string>& args,
                                BenchFlags& out, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  std::vector<std::string> rest;
  rest.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {  // positionals may start with '-' ("-1")
      rest.push_back(a);
      continue;
    }
    // A following "--token" is the next flag, not this flag's value — treat
    // it as a missing value rather than silently swallowing that flag.
    const auto next_value = [&]() -> const std::string* {
      if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0)
        return nullptr;
      return &args[++i];
    };
    if (a == "--help") {
      out.help = true;
    } else if (a == "--pin") {
      out.pin = true;
    } else if (a == "--no-asym") {
      out.asym = false;
    } else if (a == "--asym") {  // explicit opt-in, for A/B scripting
      out.asym = true;
    } else if (a == "--bg") {
      out.bg = true;
    } else if (a == "--no-bg") {  // explicit opt-out, for A/B scripting
      out.bg = false;
    } else if (a == "--split") {
      out.split = true;
    } else if (a == "--reclaim-interval-us") {
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0 ||
          n > std::numeric_limits<unsigned>::max())
        return fail("--reclaim-interval-us needs a positive interval");
      out.reclaim_interval_us = static_cast<unsigned>(n);
    } else if (a == "--memory-target") {
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0)
        return fail("--memory-target needs a positive node count");
      out.memory_target = static_cast<std::uint64_t>(n);
    } else if (a == "--seed") {
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n < 0)
        return fail("--seed needs a non-negative integer");
      out.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--json") {
      const std::string* v = next_value();
      if (!v || v->empty()) return fail("--json needs a file path");
      out.json_path = *v;
    } else if (a == "--dist") {
      const std::string* v = next_value();
      std::optional<KeyDist> d;
      if (!v || !(d = key_dist_from_name(*v)))
        return fail("--dist needs 'uniform' or 'zipfian'");
      out.dist = d;
    } else if (a == "--theta") {
      const std::string* v = next_value();
      double th = 0;
      if (!v || !parse_double(*v, th) || !(th > 0.0 && th < 1.0))
        return fail("--theta needs a value in (0, 1)");
      out.zipf_theta = th;
    } else if (a == "--preset") {
      const std::string* v = next_value();
      std::optional<WorkloadMix> p;
      if (!v || !(p = preset_from_name(*v)))
        return fail(
            "--preset needs mixed, read-mostly, write-heavy, ycsb-a, ycsb-b, "
            "or ycsb-c");
      out.preset = p;
    } else if (a == "--ops") {
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0)
        return fail("--ops needs a positive per-thread operation count");
      out.op_budget = static_cast<std::uint64_t>(n);
    } else if (a == "--value-size") {
      // Upper bound is the serving layer's pooled-cell ceiling (values are
      // inline blob nodes; see src/kv/kv_hash_map.hpp max_value_bytes()).
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0 || n > 4096)
        return fail("--value-size needs bytes in [1, 4096]");
      out.value_size = static_cast<std::size_t>(n);
    } else if (a == "--key-len") {
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0 || n > 1024)
        return fail("--key-len needs bytes in [1, 1024]");
      out.key_len = static_cast<std::size_t>(n);
    } else if (a == "--shards") {
      // The router uses the hash's top 16 bits, so more than 65536 shards
      // can never be addressed.
      const std::string* v = next_value();
      long long n = 0;
      if (!v || !parse_decimal(*v, n) || n <= 0 || n > 65536)
        return fail("--shards needs a shard count in [1, 65536]");
      out.kv_shards = static_cast<unsigned>(n);
    } else {
      return fail("unknown flag '" + a + "'");
    }
  }
  args = std::move(rest);
  return true;
}

// Copies the per-case flags into a case: seed, key distribution (when
// given), pinning, op budget, reclamation knobs, the kv and container
// shape, and (when --preset was given) the workload mix.  The one copy
// behind parse_cli and scot_figs.
inline void apply_flags(const BenchFlags& f, CaseConfig& cfg) {
  cfg.seed = f.seed;
  if (f.dist) cfg.key_dist = *f.dist;
  cfg.zipf_theta = f.zipf_theta;
  cfg.pin_threads = f.pin;
  cfg.op_budget = f.op_budget;
  cfg.asymmetric_fences = f.asym;
  cfg.background_reclaim = f.bg;
  cfg.reclaim_interval_us = f.reclaim_interval_us;
  cfg.memory_target = f.memory_target;
  cfg.value_size = f.value_size;
  cfg.key_len = f.key_len;
  cfg.kv_shards = f.kv_shards;
  cfg.split_workload = f.split;
  if (f.preset) {
    cfg.read_pct = f.preset->read_pct;
    cfg.insert_pct = f.preset->insert_pct;
    cfg.delete_pct = f.preset->delete_pct;
  }
}

// Parses the paper CLI — positional `argv[1..9]` plus the optional --flags
// above, in any position — into a CaseConfig (argv[0] is the program name,
// as in main()).  Returns nullopt on malformed input; `error`, when given,
// receives a one-line reason.  `flags_out`, when given, receives the flag
// values even on failure (so callers can honour --help).  A --preset flag
// overrides the positional workload mix.
inline std::optional<CaseConfig> parse_cli(int argc, const char* const* argv,
                                           std::string* error = nullptr,
                                           BenchFlags* flags_out = nullptr) {
  const auto fail = [error](std::string msg) -> std::optional<CaseConfig> {
    if (error) *error = std::move(msg);
    return std::nullopt;
  };
  std::vector<std::string> args(argv + 1, argv + argc);
  BenchFlags flags;
  std::string flag_error;
  const bool flags_ok = extract_bench_flags(args, flags, &flag_error);
  if (flags_out) *flags_out = flags;
  if (!flags_ok) return fail(std::move(flag_error));
  if (flags.help) return fail("--help requested");
  if (args.size() != 9)
    return fail("expected exactly 9 arguments (plus optional --flags)");

  CaseConfig cfg;
  const auto structure = structure_from_mode(args[0]);
  if (!structure) return fail("unknown mode '" + args[0] + "'");
  cfg.structure = *structure;

  // Upper bounds guard the narrowing casts below: cfg.millis is an int and
  // cfg.runs/cfg.threads are unsigned, so "positive" alone is not enough.
  // Threads get the much tighter kMaxThreads.
  constexpr long long kMaxSeconds = std::numeric_limits<int>::max() / 1000;
  constexpr long long kMaxUnsigned = std::numeric_limits<unsigned>::max();

  long long seconds, range, runs, read, ins, del, threads;
  if (!parse_decimal(args[1], seconds) || seconds <= 0 ||
      seconds > kMaxSeconds)
    return fail("bad <seconds> '" + args[1] + "'");
  if (!parse_decimal(args[2], range) || range <= 0)
    return fail("bad <keyrange> '" + args[2] + "'");
  if (!parse_decimal(args[3], runs) || runs <= 0 || runs > kMaxUnsigned)
    return fail("bad <runs> '" + args[3] + "'");
  if (!parse_decimal(args[4], read) || read < 0 || read > 100)
    return fail("bad <read%> '" + args[4] + "'");
  if (!parse_decimal(args[5], ins) || ins < 0 || ins > 100)
    return fail("bad <ins%> '" + args[5] + "'");
  if (!parse_decimal(args[6], del) || del < 0 || del > 100)
    return fail("bad <del%> '" + args[6] + "'");
  if (read + ins + del != 100)
    return fail("workload mix <read%>+<ins%>+<del%> must sum to 100");

  const auto scheme = scheme_from_name(args[7]);
  if (!scheme) return fail("unknown scheme '" + args[7] + "'");
  cfg.scheme = *scheme;

  if (!parse_decimal(args[8], threads) || threads <= 0 ||
      threads > kMaxThreads)
    return fail("bad <threads> '" + args[8] + "'");

  cfg.millis = static_cast<int>(seconds * 1000);
  cfg.key_range = static_cast<std::uint64_t>(range);
  cfg.runs = static_cast<unsigned>(runs);
  cfg.read_pct = static_cast<int>(read);
  cfg.insert_pct = static_cast<int>(ins);
  cfg.delete_pct = static_cast<int>(del);
  cfg.threads = static_cast<unsigned>(threads);
  cfg.sample_memory = true;
  apply_flags(flags, cfg);
  // Container concepts have no read op; validate after the preset so
  // "queue ... --preset mixed" fails loudly instead of silently dropping
  // half the workload.  --split replaces the roll entirely, so it is only
  // meaningful for container modes.
  const ContainerKind kind = container_kind(cfg.structure);
  const bool is_container = kind == ContainerKind::kQueue ||
                            kind == ContainerKind::kStack ||
                            kind == ContainerKind::kDeque;
  if (is_container && cfg.read_pct != 0)
    return fail(std::string("<read%> must be 0 for container mode '") +
                container_kind_name(kind) +
                "' (<ins%> is the push share, <del%> the pop share)");
  if (!is_container && cfg.split_workload)
    return fail("--split only applies to queue/stack/deque modes");
  return cfg;
}

// --- environment knobs so the figure grids scale to the host -------------
// SCOT_BENCH_MS        per-cell duration in milliseconds (default `def_ms`)
// SCOT_BENCH_THREADS   comma list of thread counts (default "1,2,4,8")
// SCOT_BENCH_RUNS      runs per cell, median reported (default 1)
// Each value is parsed whole (parse_decimal); a malformed or out-of-range
// value falls back to the default.

inline int env_ms(int def_ms) {
  long long v = 0;
  if (const char* e = std::getenv("SCOT_BENCH_MS");
      e != nullptr && parse_decimal(e, v) && v > 0 &&
      v <= std::numeric_limits<int>::max())
    return static_cast<int>(v);
  return def_ms;
}

inline unsigned env_runs() {
  long long v = 0;
  if (const char* e = std::getenv("SCOT_BENCH_RUNS");
      e != nullptr && parse_decimal(e, v) && v > 0 &&
      v <= std::numeric_limits<unsigned>::max())
    return static_cast<unsigned>(v);
  return 1;
}

// Empty tokens ("1,,2", a trailing comma) are skipped; one malformed token,
// or one outside [1, kMaxThreads], rejects the whole list.
inline std::vector<unsigned> env_threads() {
  const std::vector<unsigned> kDefault{1, 2, 4, 8};
  const char* e = std::getenv("SCOT_BENCH_THREADS");
  if (e == nullptr) return kDefault;
  const std::string_view spec(e);
  std::vector<unsigned> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view tok = spec.substr(pos, comma - pos);
    long long v = 0;
    if (!tok.empty()) {
      if (!parse_decimal(tok, v) || v <= 0 || v > kMaxThreads)
        return kDefault;
      out.push_back(static_cast<unsigned>(v));
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out.empty() ? kDefault : out;
}

}  // namespace scot::bench
