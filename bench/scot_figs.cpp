// scot_figs <name> [--flags]: the one driver behind every figure, table and
// ablation of the paper reproduction, plus the container, kv and latency
// grids.  <name> is the report's `bench` tag; each name is one row of the
// figures() table below:
//
//   plain grids   one table per GridSpec: rows = thread counts, columns =
//                 SMR schemes, every cell a run_case() (fig8-12,
//                 containers, kv);
//   paired grids  structure A against structure B per thread count under a
//                 fixed scheme, with per-figure columns (table2 and the two
//                 §3.2 ablations);
//   bespoke       table1 (the live compatibility matrix) and latency (the
//                 percentile sweep, plus --trace <path>).
//
// Durations and thread counts scale to the host via SCOT_BENCH_MS /
// SCOT_BENCH_THREADS / SCOT_BENCH_RUNS; every shared --flag of
// bench/options.hpp applies.  Unknown names, stray positionals and --trace
// on anything but latency exit 2 with usage — nothing is silently ignored.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "bench/report/report.hpp"
#include "bench/runner.hpp"
#include "bench/table.hpp"
#include "obs/trace.hpp"

namespace scot::bench {
namespace {

// The parsed flags and the cells recorded so far, for one invocation.
struct Driver {
  std::string bench;  // the figure name, the cells' `bench` tag
  BenchFlags flags;
  BenchReport report;

  // Runs one cell and records it under `label`.
  CaseResult run(const std::string& label, const CaseConfig& cfg) {
    const CaseResult r = run_case(cfg);
    report.add(bench, label, cfg, r);
    return r;
  }
};

enum class Metric { kThroughputMops, kAvgPending };

struct GridSpec {
  std::string title;
  StructureId structure;
  std::uint64_t key_range;
  int ms;  // SCOT_BENCH_MS default
  // Memory grids omit NR, as the paper's memory figures do.
  Metric metric = Metric::kThroughputMops;
  WorkloadMix mix{50, 25, 25};  // paper headline mix: 50r / 25i / 25d
  bool sample_memory = false;   // record the pending gauge in a Mops grid
  std::optional<bool> split{};  // container roles; unset = --split
  unsigned shards = 0;          // kv shard count; 0 = --shards
};

// The config line under a grid's title: what every cell of the grid shares.
void print_grid_config(const CaseConfig& c) {
  const ContainerKind kind = container_kind(c.structure);
  const auto range = static_cast<unsigned long long>(c.key_range);
  if (kind == ContainerKind::kKv) {
    std::printf("   mix=%d/%d/%d range=%llu key=%zuB value=%zuB", c.read_pct,
                c.insert_pct, c.delete_pct, range, c.key_len, c.value_size);
  } else if (kind == ContainerKind::kMap) {
    std::printf("   structure=%s range=%llu mix=%d/%d/%d",
                structure_name(c.structure), range, c.read_pct, c.insert_pct,
                c.delete_pct);
  } else if (c.split_workload) {
    std::printf("   structure=%s prefill=%llu mix=split producer/consumer",
                structure_name(c.structure), range / 2);
  } else {
    std::printf("   structure=%s prefill=%llu mix=%d push / %d pop",
                structure_name(c.structure), range / 2, c.insert_pct,
                100 - c.insert_pct);
  }
  std::printf(" ms=%d runs=%u", c.millis, c.runs);
  const bool keyed = kind == ContainerKind::kMap || kind == ContainerKind::kKv;
  if (keyed && c.key_dist == KeyDist::kZipfian)
    std::printf(" dist=zipfian(%.2f)", c.zipf_theta);
  if (c.pin_threads) std::printf(" pinned");
  if (!c.asymmetric_fences) std::printf(" no-asym");
  if (c.background_reclaim) std::printf(" bg-reclaim");
  std::printf("\n");
}

// Split container grids skip the 1-thread row (they need one worker of
// each role).
void run_grid(Driver& d, const GridSpec& spec) {
  CaseConfig proto;
  proto.structure = spec.structure;
  proto.key_range = spec.key_range;
  proto.read_pct = spec.mix.read_pct;
  proto.insert_pct = spec.mix.insert_pct;
  proto.delete_pct = spec.mix.delete_pct;
  proto.millis = env_ms(spec.ms);
  proto.runs = env_runs();
  proto.sample_memory =
      spec.sample_memory || spec.metric == Metric::kAvgPending;
  apply_flags(d.flags, proto);
  if (spec.split) proto.split_workload = *spec.split;
  if (spec.shards != 0) proto.kv_shards = spec.shards;
  if (container_kind(spec.structure) == ContainerKind::kKv) {
    // Serving-shape defaults for the flags the user did not give.
    if (!d.flags.dist) proto.key_dist = KeyDist::kZipfian;
    if (d.flags.key_len == 0) proto.key_len = 16;
    if (d.flags.value_size == 0) proto.value_size = 128;
  }

  std::printf("== %s ==\n", spec.title.c_str());
  print_grid_config(proto);

  const bool pending = spec.metric == Metric::kAvgPending;
  std::vector<std::string> header{"threads"};
  std::vector<SchemeId> schemes;
  for (SchemeId s : kAllSchemes) {
    if (pending && s == SchemeId::kNR) continue;
    schemes.push_back(s);
    header.push_back(scheme_name(s));
  }
  Table t(std::move(header));
  for (unsigned th : env_threads()) {
    if (proto.split_workload && th < 2) continue;
    std::vector<std::string> row{std::to_string(th)};
    for (SchemeId s : schemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      cfg.threads = th;
      const CaseResult r = d.run(spec.title, cfg);
      row.push_back(pending ? format_double(r.avg_pending, 0)
                            : format_double(r.mops, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("%s\n", pending
                          ? "   (avg not-yet-reclaimed nodes; lower is "
                            "better; HLN reported via the domain-wide gauge)"
                          : "   (Mops/s; higher is better)");
  std::printf("\n");
}

// --- paired grids ----------------------------------------------------------

struct Arm {
  StructureId structure;
  const char* label;  // cell label
};

enum class Stat { kMops, kOpsPerSec, kRestarts, kRestartPct, kRecoveries,
                  kSpeedup };

struct PairColumn {
  const char* header;
  bool of_b;  // which arm the column reads (kSpeedup reads both: a / b)
  Stat stat;
};

// Arm a against arm b per thread count, one table per (scheme, range).
struct PairedSpec {
  Arm a, b;
  std::vector<SchemeId> schemes;
  std::vector<std::uint64_t> ranges;
  int ms;  // SCOT_BENCH_MS default
  std::vector<PairColumn> columns;
};

std::string stat_cell(const PairColumn& c, const CaseResult& a,
                      const CaseResult& b) {
  const CaseResult& r = c.of_b ? b : a;
  switch (c.stat) {
    case Stat::kMops: return format_double(r.mops, 2);
    case Stat::kOpsPerSec: return format_si(r.mops * 1e6);
    case Stat::kRestarts: return std::to_string(r.restarts);
    case Stat::kRestartPct:
      return format_double(
          r.total_ops ? 100.0 * static_cast<double>(r.restarts) /
                            static_cast<double>(r.total_ops)
                      : 0.0,
          2);
    case Stat::kRecoveries: return std::to_string(r.recoveries);
    case Stat::kSpeedup:
      return format_double(b.mops > 0 ? a.mops / b.mops : 0, 3);
  }
  return "?";
}

void run_paired(Driver& d, const PairedSpec& p) {
  for (const SchemeId scheme : p.schemes) {
    for (const std::uint64_t range : p.ranges) {
      std::vector<std::string> header{"threads"};
      for (const PairColumn& c : p.columns) header.push_back(c.header);
      Table t(std::move(header));
      for (unsigned th : env_threads()) {
        CaseResult r[2];
        for (int i = 0; i < 2; ++i) {
          const Arm& arm = i == 0 ? p.a : p.b;
          CaseConfig cfg;
          cfg.structure = arm.structure;
          cfg.scheme = scheme;
          cfg.threads = th;
          cfg.key_range = range;
          cfg.millis = env_ms(p.ms);
          cfg.runs = env_runs();
          apply_flags(d.flags, cfg);
          r[i] = d.run(arm.label, cfg);
        }
        std::vector<std::string> row{std::to_string(th)};
        for (const PairColumn& c : p.columns)
          row.push_back(stat_cell(c, r[0], r[1]));
        t.add_row(std::move(row));
      }
      // A table is titled by what varies across the spec's tables.
      const auto kr = static_cast<unsigned long long>(range);
      if (p.schemes.size() > 1)
        std::printf("== %s, key range %llu ==\n", scheme_name(scheme), kr);
      else if (p.ranges.size() > 1)
        std::printf("== key range %llu ==\n", kr);
      t.print();
      std::printf("\n");
    }
  }
}

// --- bespoke bodies --------------------------------------------------------

// Table 1 is analytical in the paper; here every structure runs a short
// workload under every scheme and a cell reads "ok" only if the run
// completes.  The "HP* w/o SCOT" column cannot be run — traversing a
// reclaimed chain is undefined behaviour, which is the paper's point — so
// it is the paper's analysis.
void run_table1(Driver& d) {
  struct RowSpec {
    StructureId structure;
    const char* label;
    const char* fast;      // paper's "Fast" column
    const char* hp_nosct;  // original structure under HP/HE/IBR/HLN
  };
  constexpr const char* kUnsafe = "x (by construction)";
  const RowSpec rows[] = {
      {StructureId::kHList, "Harris list (SCOT)", "yes", kUnsafe},
      {StructureId::kHListWF, "Harris list (SCOT, wait-free)", "yes", kUnsafe},
      {StructureId::kHMList, "Harris-Michael list", "moderate", "ok"},
      {StructureId::kNMTree, "Natarajan-Mittal tree (SCOT)", "yes", kUnsafe},
      {StructureId::kSkipList, "Fraser skip list (SCOT)", "yes", kUnsafe},
      {StructureId::kSkipListEager, "Herlihy-Shavit skip list", "moderate",
       "ok"},
      {StructureId::kHashMap, "Hash map (SCOT lists)", "yes", kUnsafe},
  };
  Table t({"Data structure", "Fast", "EBR", "HP*", "HP* w/o SCOT"});
  const int ms = env_ms(40);
  for (const RowSpec& row : rows) {
    auto ok = [&](SchemeId s) {
      CaseConfig cfg;
      cfg.structure = row.structure;
      cfg.scheme = s;
      cfg.threads = 2;
      cfg.key_range = 128;
      cfg.millis = ms;
      apply_flags(d.flags, cfg);
      return d.run(std::string(row.label) + " / " + scheme_name(s), cfg)
                 .total_ops > 0;
    };
    // "HP*" stands for HP/HE/IBR/Hyaline-1S (paper footnote); run all of
    // them (and HPopt) and require every one to pass.
    bool hp_star_ok = true;
    for (SchemeId s : {SchemeId::kHP, SchemeId::kHPopt, SchemeId::kHE,
                       SchemeId::kIBR, SchemeId::kHLN})
      hp_star_ok = ok(s) && hp_star_ok;
    t.add_row({row.label, row.fast, ok(SchemeId::kEBR) ? "ok" : "x",
               hp_star_ok ? "ok" : "x", row.hp_nosct});
  }
  t.print();
}

// Per-op latency percentiles, scheme x structure, at the deepest configured
// thread count: every Nth op is timed into a log-bucketed histogram
// (obs/histogram.hpp).  A scheme whose scans stall readers shows up here as
// a p999 spike long before it dents Mops.
void run_latency(Driver& d) {
  const unsigned th = env_threads().back();
  const int ms = env_ms(200);
  const unsigned runs = env_runs();
  for (const StructureId structure :
       {StructureId::kHMList, StructureId::kHList, StructureId::kNMTree,
        StructureId::kHashMap, StructureId::kSkipList}) {
    CaseConfig proto;
    proto.structure = structure;
    proto.key_range = 512;
    proto.threads = th;
    proto.millis = ms;
    proto.runs = runs;
    apply_flags(d.flags, proto);

    const std::string title =
        std::string("latency: ") + structure_name(structure);
    std::printf("== %s ==\n", title.c_str());
    std::printf("   range=%llu threads=%u mix=%d/%d/%d ms=%d runs=%u "
                "sample=1/%u\n",
                static_cast<unsigned long long>(proto.key_range), th,
                proto.read_pct, proto.insert_pct, proto.delete_pct, ms, runs,
                proto.latency_sample_every);

    Table t({"scheme", "p50 ns", "p99 ns", "p99.9 ns", "Mops"});
    for (const SchemeId s : kAllSchemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      const CaseResult r = d.run(title, cfg);
      t.add_row({scheme_name(s), format_double(r.p50_ns, 0),
                 format_double(r.p99_ns, 0), format_double(r.p999_ns, 0),
                 format_double(r.mops, 2)});
    }
    t.print();
    std::printf("   (sampled per-op latency; bucket midpoints, <=6.25%% "
                "bucket error)\n\n");
  }
}

// --- the figure table ------------------------------------------------------

struct Figure {
  const char* name;
  const char* header;  // printed first; "" = none
  std::vector<GridSpec> grids;
  std::optional<PairedSpec> paired{};
  void (*body)(Driver&) = nullptr;
  const char* footer = "";
};

// kv: YCSB preset (--preset narrows to one; a non-YCSB preset runs as one
// "custom" grid) x shard count ({1, 8}; --shards narrows to one), over
// StructureId::kKvHash.
std::vector<GridSpec> kv_grids(const BenchFlags& f) {
  std::vector<GridSpec> grids;
  const auto add = [&](const char* name, WorkloadMix mix) {
    for (unsigned sh : f.kv_shards != 0 ? std::vector<unsigned>{f.kv_shards}
                                        : std::vector<unsigned>{1, 8}) {
      grids.push_back({std::string("kv: ") + name + ", " +
                           std::to_string(sh) + (sh == 1 ? " shard" : " shards"),
                       StructureId::kKvHash, 4096, 200, Metric::kThroughputMops,
                       mix, false, std::nullopt, sh});
    }
  };
  for (const char* name : {"ycsb-a", "ycsb-b", "ycsb-c"}) {
    const WorkloadMix mix = *preset_from_name(name);
    if (!f.preset || *f.preset == mix) add(name, mix);
  }
  if (grids.empty()) add("custom", *f.preset);
  return grids;
}

// containers: each of queue/stack/deque under a mixed 50/50 push/pop roll
// and a split producer/consumer run.
std::vector<GridSpec> container_grids() {
  std::vector<GridSpec> grids;
  for (const auto& [name, structure] :
       {std::pair{"MS queue", StructureId::kMSQueue},
        std::pair{"Treiber stack", StructureId::kTreiberStack},
        std::pair{"Michael deque", StructureId::kDeque}}) {
    for (const bool split : {false, true}) {
      grids.push_back({std::string("Containers: ") + name +
                           (split ? ", split producers/consumers"
                                  : ", mixed 50/50"),
                       structure, 2048, 300, Metric::kThroughputMops,
                       {0, 50, 50}, true, split});
    }
  }
  return grids;
}

std::vector<Figure> figures(const BenchFlags& flags) {
  using S = StructureId;
  constexpr Metric kPending = Metric::kAvgPending;
  return {
      // HList >= HMList at every scheme, the gap largest at range 512; EBR
      // ~ upper bound; HPopt above HP.
      {"fig8",
       "SCOT reproduction — Figure 8 (list throughput, 50r/25i/25d)",
       {{"Fig 8a: Harris-Michael list, range 512", S::kHMList, 512, 300},
        {"Fig 8a: Harris list (SCOT, wait-free search), range 512",
         S::kHListWF, 512, 300},
        {"Fig 8b: Harris-Michael list, range 10,000", S::kHMList, 10000, 300},
        {"Fig 8b: Harris list (SCOT, wait-free search), range 10,000",
         S::kHListWF, 10000, 300}}},
      // All schemes close to NR at range 128; EBR on top at 100,000 with
      // Hyaline-1S and IBR close behind.
      {"fig9",
       "SCOT reproduction — Figure 9 (NMTree throughput, 50r/25i/25d)",
       {{"Fig 9a: NMTree, range 128", S::kNMTree, 128, 300},
        {"Fig 9b: NMTree, range 100,000", S::kNMTree, 100000, 400}}},
      // HP/HPopt lowest, EBR highest.  Unlike the paper, Hyaline-1S is
      // reported: the pending gauge is domain-wide (DESIGN.md §8).
      {"fig10",
       "SCOT reproduction — Figure 10 (list memory overhead)",
       {{"Fig 10a: Harris-Michael list, range 512", S::kHMList, 512, 300,
         kPending},
        {"Fig 10a: Harris list (SCOT), range 512", S::kHListWF, 512, 300,
         kPending},
        {"Fig 10b: Harris-Michael list, range 10,000", S::kHMList, 10000, 300,
         kPending},
        {"Fig 10b: Harris list (SCOT), range 10,000", S::kHListWF, 10000, 300,
         kPending}}},
      // HP/HPopt lowest ("strict and conservative reclamation"), EBR highest
      // ("relaxed and delayed reclamation").
      {"fig11",
       "SCOT reproduction — Figure 11 (NMTree memory overhead)",
       {{"Fig 11a: NMTree, range 128", S::kNMTree, 128, 300, kPending},
        {"Fig 11b: NMTree, range 100,000", S::kNMTree, 100000, 400,
         kPending}}},
      // The paper's 50,000,000 keys scaled to 2,000,000 (~1M live nodes,
      // far beyond L2): the regime, not the size, is the point.  Throughput
      // below Figure 9 with the scheme order unchanged; EBR keeps the most
      // unreclaimed nodes at high thread counts, HP/HPopt the fewest.
      {"fig12",
       "SCOT reproduction — Figure 12 (NMTree, out-of-cache range)",
       {{"Fig 12a: NMTree throughput, range 2,000,000", S::kNMTree, 2000000,
         500},
        {"Fig 12b: NMTree not-yet-reclaimed, range 2,000,000", S::kNMTree,
         2000000, 500, kPending}}},
      {"table1", "SCOT reproduction — Table 1 (SMR compatibility matrix)",
       {}, {}, run_table1,
       "\n('ok' cells are verified by live runs; the w/o-SCOT column is the "
       "paper's analytical result — those traversals are unsafe to "
       "execute)\n"},
      // The paper's HMList restart rate climbs to 8.19% of operations while
      // Harris+SCOT stays at ~0%; the shape to check is the per-list ratio.
      {"table2",
       "SCOT reproduction — Table 2 (restart statistics, HP, range 10,000)",
       {},
       PairedSpec{{S::kHMList, "Table 2: HMList restarts under HP"},
                  {S::kHListWF, "Table 2: HList restarts under HP"},
                  {SchemeId::kHP}, {10000}, 400,
                  {{"HMList restarts", false, Stat::kRestarts},
                   {"HMList ops/s", false, Stat::kOpsPerSec},
                   {"HMList restart%", false, Stat::kRestartPct},
                   {"HList restarts", true, Stat::kRestarts},
                   {"HList ops/s", true, Stat::kOpsPerSec},
                   {"HList restart%", true, Stat::kRestartPct}}},
       nullptr,
       "(restart% = full traversal restarts / operations; the paper reports "
       "0%->8.19% for HMList and ~0% for HList)\n"},
      // §3.2.1: escaping a failed dangerous-zone validation to the last
      // safe node's new successor instead of restarting from the head.
      // The paper found it beneficial for the list, not the tree.
      {"ablation_recovery",
       "SCOT ablation — §3.2.1 recovery optimization (Harris list, HP)",
       {},
       PairedSpec{{S::kHList, "recovery ablation, on"},
                  {S::kHListNoRecovery, "recovery ablation, off"},
                  {SchemeId::kHP}, {512, 10000}, 300,
                  {{"recovery Mops", false, Stat::kMops},
                   {"recovery restarts", false, Stat::kRestarts},
                   {"recoveries", false, Stat::kRecoveries},
                   {"no-recovery Mops", true, Stat::kMops},
                   {"no-recovery restarts", true, Stat::kRestarts}}}},
      // §3.2, Figure 5: the paper's unrolled Do_Find needs 2 hazard dups
      // per safe-zone step, the simple one 3.  Here the unrolled steps
      // rename roles and copy nothing (DESIGN.md §4), while the simple one
      // still makes its 3 copies; under HP each copy is a shared-visible
      // store, so unrolled should win, most at range 512.
      {"ablation_unroll",
       "SCOT ablation — §3.2 unrolled (Fig 5 right) vs simple (Fig 5 left) "
       "Do_Find",
       {},
       PairedSpec{{S::kHList, "unroll ablation, unrolled"},
                  {S::kHListSimple, "unroll ablation, simple"},
                  {SchemeId::kHP, SchemeId::kHE}, {512, 10000}, 300,
                  {{"unrolled Mops", false, Stat::kMops},
                   {"simple Mops", true, Stat::kMops},
                   {"speedup", false, Stat::kSpeedup}}}},
      // The stack's single-CAS top is the contention ceiling (recoveries 0
      // by construction); the queue's help-swing recoveries grow with
      // producers; the deque should stay flat across schemes if the guard
      // API is truly structure-agnostic.
      {"containers",
       "SCOT reproduction — scheme x container grid (queue/stack/deque)",
       container_grids()},
      // YCSB serving over KvStore: zipfian keys, 16-byte keys, 128-byte
      // values unless --dist/--key-len/--value-size say otherwise.
      {"kv", "", kv_grids(flags)},
      {"latency", "", {}, {}, run_latency},
  };
}

int usage(std::FILE* out, const char* argv0, const std::string& error,
          int rc) {
  if (!error.empty()) std::fprintf(out, "%s: %s\n", argv0, error.c_str());
  std::string names;
  for (const Figure& f : figures(BenchFlags{})) {
    if (!names.empty()) names += '|';
    names += f.name;
  }
  std::fprintf(out, "usage: %s <%s> [--trace <path> (latency only)] %s\n",
               argv0, names.c_str(), kFlagUsage);
  return rc;
}

int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // --trace belongs to latency alone, so it is peeled here rather than
  // taught to extract_bench_flags; a second --trace is an unknown flag.
  std::optional<std::string> trace_path;
  if (auto it = std::find(args.begin(), args.end(), "--trace");
      it != args.end() && it + 1 != args.end()) {
    trace_path = *(it + 1);
    args.erase(it, it + 2);
  }
  Driver d;
  std::string error;
  if (!extract_bench_flags(args, d.flags, &error))
    return usage(stderr, argv[0], error, 2);
  if (d.flags.help) return usage(stdout, argv[0], "", 0);
  if (args.empty()) return usage(stderr, argv[0], "missing figure name", 2);
  if (args.size() > 1)
    return usage(stderr, argv[0], "unexpected argument '" + args[1] + "'", 2);

  const std::vector<Figure> figs = figures(d.flags);
  const Figure* fig = nullptr;
  for (const Figure& f : figs)
    if (args[0] == f.name) fig = &f;
  if (fig == nullptr)
    return usage(stderr, argv[0], "unknown figure '" + args[0] + "'", 2);
  if (trace_path && fig->body != run_latency)
    return usage(stderr, argv[0], "--trace only applies to latency", 2);

  d.bench = fig->name;
  if (*fig->header) std::printf("%s\n\n", fig->header);
  for (const GridSpec& g : fig->grids) run_grid(d, g);
  if (fig->paired) run_paired(d, *fig->paired);
  if (fig->body) fig->body(d);
  std::fputs(fig->footer, stdout);

  if (!d.flags.json_path.empty()) {
    if (!d.report.write_file(d.flags.json_path, &error)) {
      std::fprintf(stderr, "failed to write %s: %s\n",
                   d.flags.json_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("wrote %zu cell(s) to %s\n", d.report.cells().size(),
                d.flags.json_path.c_str());
  }
  // The SMR event rings, as Chrome trace-event JSON (chrome://tracing,
  // Perfetto).  They only record in -DSCOT_TRACE=ON builds; elsewhere the
  // file is written but empty.
  if (trace_path) {
    const auto& log = obs::TraceLog::instance();
    if (!log.export_chrome(*trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path->c_str());
      return 1;
    }
    std::printf("wrote %llu trace event(s) to %s%s\n",
                static_cast<unsigned long long>(log.total_events()),
                trace_path->c_str(),
                SCOT_TRACE ? "" : " (build with -DSCOT_TRACE=ON to record)");
  }
  return 0;
}

}  // namespace
}  // namespace scot::bench

int main(int argc, char** argv) { return scot::bench::run(argc, argv); }
