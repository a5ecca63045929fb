// BenchReport: run metadata plus one entry per benchmark cell, serialised
// to the versioned scot-bench JSON schema (documented in README
// "Bench telemetry & regression gate").  bench_cli and scot_figs write
// these files; bench_diff reads two of them back.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench/options.hpp"

namespace scot::bench {

inline constexpr const char* kReportSchemaName = "scot-bench";
// v2 adds per-cell latency percentiles (p50_ns/p99_ns/p999_ns) and
// meta.stats_enabled.  v3 adds meta.noise_floor_pct and the background-
// reclaimer cell fields (bg/reclaim_interval_us/memory_target; cell_key
// grows a "|bg" suffix only when the reclaimer is on).  Strictly additive:
// the parser still loads v1/v2 files (the new fields default to 0/false/off),
// and cell_key() ignores measurements, so old baselines diff cleanly
// against new runs.  v4 adds the serving-layer cell fields
// (value_size/key_len/shards; cell_key grows "|vs<n>"/"|kl<n>"/"|sh<n>"
// suffixes only when non-zero) — again additive, so integer-keyed cells
// keep their v3 keys byte-for-byte.  v5 adds the container-concept cell
// field (split; cell_key grows a "|split" suffix only for split
// producer/consumer runs), so map/kv cells keep their v4 keys.
inline constexpr int kReportSchemaVersion = 5;

struct ReportMeta {
  std::string schema = kReportSchemaName;
  int schema_version = kReportSchemaVersion;
  std::string git_sha;        // configure-time HEAD (see src/CMakeLists.txt)
  std::string compiler;       // e.g. "gcc 12.2.0"
  std::string flags;          // CXX flags of the active build type
  std::string build_type;     // Release / RelWithDebInfo / ...
  unsigned hardware_threads = 0;
  std::string timestamp_utc;  // ISO 8601, e.g. "2026-07-30T12:00:00Z"
  // Which asymmetric-fence implementation the host would use when a run
  // requests asymmetric fences: "membarrier" or "fence-fallback"
  // (src/common/asymfence.hpp).  Cells record per-run on/off separately.
  std::string asym_fence;
  // Whether the binary was compiled with the SMR telemetry counters
  // (SCOT_STATS; DESIGN.md §8).  v2; loads as false from v1 files.
  bool stats_enabled = false;
  // Stats-on vs stats-off delta of this host/binary.  Nothing measures it
  // any more (a hot-loop sweep could not tell it from noise), so it is
  // always written as 0 = "never measured"; kept because the schema is
  // append-only, and loads as 0 from files that predate the field.
  double noise_floor_pct = 0.0;
};

// Metadata of the running binary: build-time macros + runtime clock.
ReportMeta current_meta();

struct ReportCell {
  std::string bench;  // binary family, e.g. "fig8"
  std::string label;  // grid title, e.g. "Fig 8a: Harris-Michael list, ..."
  CaseConfig cfg;
  CaseResult result;
};

// Stable identity of a cell across runs: everything that defines the
// workload, none of the measurements.  seed/millis/runs are deliberately
// excluded so a short smoke run can be compared against the committed
// baseline.
std::string cell_key(const ReportCell& cell);

class BenchReport {
 public:
  BenchReport() : meta_(current_meta()) {}
  explicit BenchReport(ReportMeta meta) : meta_(std::move(meta)) {}

  void add(std::string bench, std::string label, const CaseConfig& cfg,
           const CaseResult& result);

  const ReportMeta& meta() const { return meta_; }
  const std::vector<ReportCell>& cells() const { return cells_; }

  std::string to_json() const;
  bool write_file(const std::string& path, std::string* error = nullptr) const;

  // Strict load: wrong schema name, unsupported version, or an
  // unresolvable scheme/structure name is an error, not a skipped cell.
  static std::optional<BenchReport> from_json(std::string_view text,
                                              std::string* error = nullptr);
  static std::optional<BenchReport> load_file(const std::string& path,
                                              std::string* error = nullptr);

 private:
  ReportMeta meta_;
  std::vector<ReportCell> cells_;
};

}  // namespace scot::bench
