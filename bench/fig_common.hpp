// Shared scaffolding for the figure-reproduction binaries: one table per
// (structure, key range), rows = thread counts, columns = SMR schemes —
// the same series the paper plots.  Every binary funnels through
// fig_init() / fig_record() / fig_finish(), which parse the shared
// optional flags (--json, --seed, --dist, ...) and write the scot-bench
// JSON report when requested.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bench/report/report.hpp"
#include "bench/runner.hpp"
#include "bench/table.hpp"

namespace scot::bench {

// Per-binary session: flags parsed once in fig_init(), cells recorded by
// run_grid()/fig_record(), JSON written by fig_finish().
struct FigSession {
  std::string bench;  // binary family tag in the report, e.g. "fig8"
  BenchFlags flags;
  BenchReport report;
};

inline FigSession& fig_session() {
  static FigSession s;
  return s;
}

// Parses the shared optional flags.  Exits 0 on --help, 2 on an unknown or
// malformed flag or on stray positional arguments (the figure binaries
// take none) — never silently ignores input.
inline void fig_init(int argc, char** argv, const char* bench) {
  FigSession& s = fig_session();
  s.bench = bench;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  if (!extract_bench_flags(args, s.flags, &error)) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", argv[0], error.c_str(),
                 argv[0], kFlagUsage);
    std::exit(2);
  }
  if (s.flags.help) {
    std::printf("usage: %s %s\n", argv[0], kFlagUsage);
    std::exit(0);
  }
  if (!args.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\nusage: %s %s\n",
                 argv[0], args.front().c_str(), argv[0], kFlagUsage);
    std::exit(2);
  }
}

// Copies the session flags into a case (options.hpp apply_flags).
inline void apply_session_flags(CaseConfig& cfg) {
  apply_flags(fig_session().flags, cfg);
}

inline void fig_record(const std::string& label, const CaseConfig& cfg,
                       const CaseResult& result) {
  FigSession& s = fig_session();
  s.report.add(s.bench, label, cfg, result);
}

// Writes the JSON report when --json was given; returns main()'s exit code.
inline int fig_finish() {
  FigSession& s = fig_session();
  if (s.flags.json_path.empty()) return 0;
  std::string error;
  if (!s.report.write_file(s.flags.json_path, &error)) {
    std::fprintf(stderr, "failed to write %s: %s\n",
                 s.flags.json_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %zu cell(s) to %s\n", s.report.cells().size(),
              s.flags.json_path.c_str());
  return 0;
}

enum class Metric { kThroughputMops, kAvgPending };

struct GridSpec {
  const char* title;
  StructureId structure;
  std::uint64_t key_range;
  Metric metric = Metric::kThroughputMops;
  int read_pct = 50;  // paper headline mix: 50r / 25i / 25d
  int insert_pct = 25;
  int delete_pct = 25;
  bool include_nr = true;      // the paper's memory figures omit NR
  bool sample_memory = false;  // record the pending gauge in a Mops grid
};

// The config line under a grid's title: what every cell of the grid shares.
inline void print_grid_config(const CaseConfig& c) {
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

// One table per spec: rows = thread counts, columns = schemes, every cell
// a run_case() of the spec under the session flags.  Split container
// grids skip the 1-thread row (they need one worker of each role).
inline void run_grid(const GridSpec& spec, int def_ms) {
  CaseConfig proto;
  proto.structure = spec.structure;
  proto.key_range = spec.key_range;
  proto.read_pct = spec.read_pct;
  proto.insert_pct = spec.insert_pct;
  proto.delete_pct = spec.delete_pct;
  proto.millis = env_ms(def_ms);
  proto.runs = env_runs();
  proto.sample_memory =
      spec.sample_memory || spec.metric == Metric::kAvgPending;
  apply_session_flags(proto);

  std::printf("== %s ==\n", spec.title);
  print_grid_config(proto);

  std::vector<std::string> header{"threads"};
  std::vector<SchemeId> schemes;
  for (SchemeId s : kAllSchemes) {
    if (!spec.include_nr && s == SchemeId::kNR) continue;
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
      const CaseResult r = run_case(cfg);
      fig_record(spec.title, cfg, r);
      row.push_back(spec.metric == Metric::kThroughputMops
                        ? format_double(r.mops, 2)
                        : format_double(r.avg_pending, 0));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("%s\n", spec.metric == Metric::kThroughputMops
                          ? "   (Mops/s; higher is better)"
                          : "   (avg not-yet-reclaimed nodes; lower is "
                            "better; HLN reported via the domain-wide gauge)");
  std::printf("\n");
}

}  // namespace scot::bench
