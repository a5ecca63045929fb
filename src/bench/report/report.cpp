#include "bench/report/report.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "bench/report/json.hpp"
#include "common/asymfence.hpp"
#include "obs/stats.hpp"

// Generated by src/CMakeLists.txt (git sha, build flags); compiling this
// file outside CMake falls back to "unknown" everywhere.
#if __has_include("scot_build_info.hpp")
#include "scot_build_info.hpp"
#endif
#ifndef SCOT_GIT_SHA
#define SCOT_GIT_SHA "unknown"
#endif
#ifndef SCOT_BUILD_FLAGS
#define SCOT_BUILD_FLAGS "unknown"
#endif
#ifndef SCOT_BUILD_TYPE
#define SCOT_BUILD_TYPE "unknown"
#endif

namespace scot::bench {

ReportMeta current_meta() {
  ReportMeta m;
  m.git_sha = SCOT_GIT_SHA;
  m.flags = SCOT_BUILD_FLAGS;
  m.build_type = SCOT_BUILD_TYPE;
#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  m.compiler = "gcc " __VERSION__;
#else
  m.compiler = "unknown";
#endif
  m.hardware_threads = std::thread::hardware_concurrency();
  m.asym_fence = asymfence::runtime_path_name();
  m.stats_enabled = SCOT_STATS != 0;

  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  m.timestamp_utc = buf;
  return m;
}

std::string cell_key(const ReportCell& cell) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "|%s/%s|t%u|r%llu|%d/%d/%d|%s",
                structure_name(cell.cfg.structure),
                scheme_name(cell.cfg.scheme), cell.cfg.threads,
                static_cast<unsigned long long>(cell.cfg.key_range),
                cell.cfg.read_pct, cell.cfg.insert_pct, cell.cfg.delete_pct,
                key_dist_name(cell.cfg.key_dist));
  std::string key = cell.bench + "|" + cell.label + buf;
  if (cell.cfg.key_dist == KeyDist::kZipfian) {
    char theta[24];
    std::snprintf(theta, sizeof(theta), "%.3f", cell.cfg.zipf_theta);
    key += theta;
  }
  // Appended only when off, so cells from reports that predate the knob
  // (asym defaults to on) keep their identity against new default runs.
  if (!cell.cfg.asymmetric_fences) key += "|noasym";
  // Inverse convention for background reclamation: it defaults to off, so
  // the suffix appears only when on and old baselines stay comparable.
  if (cell.cfg.background_reclaim) key += "|bg";
  // Serving-layer (v4) shape, suffixed only when set: integer-keyed cells
  // leave all three at 0 and keep their pre-v4 keys byte-for-byte.
  if (cell.cfg.value_size != 0 || cell.cfg.key_len != 0 ||
      cell.cfg.kv_shards != 0) {
    char kvbuf[64];
    std::snprintf(kvbuf, sizeof(kvbuf), "|vs%zu|kl%zu|sh%u",
                  cell.cfg.value_size, cell.cfg.key_len, cell.cfg.kv_shards);
    key += kvbuf;
  }
  // Container-concept (v5) split producer/consumer runs; mixed runs (and
  // every map/kv cell) leave the flag false and keep their pre-v5 keys.
  if (cell.cfg.split_workload) key += "|split";
  return key;
}

void BenchReport::add(std::string bench, std::string label,
                      const CaseConfig& cfg, const CaseResult& result) {
  cells_.push_back(
      ReportCell{std::move(bench), std::move(label), cfg, result});
}

std::string BenchReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("schema").value(meta_.schema);
  w.key("schema_version").value(meta_.schema_version);
  w.key("meta").begin_object();
  w.key("git_sha").value(meta_.git_sha);
  w.key("compiler").value(meta_.compiler);
  w.key("flags").value(meta_.flags);
  w.key("build_type").value(meta_.build_type);
  w.key("hardware_threads").value(meta_.hardware_threads);
  w.key("timestamp_utc").value(meta_.timestamp_utc);
  w.key("asym_fence").value(meta_.asym_fence);
  w.key("stats_enabled").value(meta_.stats_enabled);
  w.key("noise_floor_pct").value(meta_.noise_floor_pct);
  w.end_object();
  w.key("cells").begin_array();
  for (const ReportCell& c : cells_) {
    w.begin_object();
    w.key("bench").value(c.bench);
    w.key("label").value(c.label);
    w.key("structure").value(structure_name(c.cfg.structure));
    w.key("scheme").value(scheme_name(c.cfg.scheme));
    w.key("threads").value(c.cfg.threads);
    w.key("key_range").value(c.cfg.key_range);
    w.key("read_pct").value(c.cfg.read_pct);
    w.key("insert_pct").value(c.cfg.insert_pct);
    w.key("delete_pct").value(c.cfg.delete_pct);
    w.key("dist").value(key_dist_name(c.cfg.key_dist));
    w.key("zipf_theta").value(c.cfg.zipf_theta);
    w.key("seed").value(c.cfg.seed);
    w.key("millis").value(c.cfg.millis);
    w.key("runs").value(c.cfg.runs);
    w.key("op_budget").value(c.cfg.op_budget);
    w.key("pinned").value(c.cfg.pin_threads);
    w.key("asym").value(c.cfg.asymmetric_fences);
    w.key("bg").value(c.cfg.background_reclaim);
    w.key("reclaim_interval_us").value(c.cfg.reclaim_interval_us);
    w.key("memory_target").value(c.cfg.memory_target);
    w.key("value_size").value(static_cast<std::uint64_t>(c.cfg.value_size));
    w.key("key_len").value(static_cast<std::uint64_t>(c.cfg.key_len));
    w.key("shards").value(c.cfg.kv_shards);
    w.key("split").value(c.cfg.split_workload);
    w.key("mops").value(c.result.mops);
    w.key("total_ops").value(c.result.total_ops);
    w.key("seconds").value(c.result.seconds);
    w.key("ns_per_op").value(c.result.ns_per_op);
    w.key("cycles_per_op").value(c.result.cycles_per_op);
    w.key("avg_pending").value(c.result.avg_pending);
    w.key("peak_pending").value(
        static_cast<std::int64_t>(c.result.peak_pending));
    w.key("restarts").value(c.result.restarts);
    w.key("recoveries").value(c.result.recoveries);
    w.key("reads").value(c.result.reads);
    w.key("inserts").value(c.result.inserts);
    w.key("removes").value(c.result.removes);
    w.key("p50_ns").value(c.result.p50_ns);
    w.key("p99_ns").value(c.result.p99_ns);
    w.key("p999_ns").value(c.result.p999_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

bool BenchReport::write_file(const std::string& path,
                             std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = std::strerror(errno);
    return false;
  }
  const std::string text = to_json();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    if (error) *error = "short write";
    return false;
  }
  return true;
}

namespace {

std::string get_str(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v ? std::string(v->str_or("")) : std::string();
}

double get_num(const json::Value& obj, std::string_view key,
               double def = 0.0) {
  const json::Value* v = obj.find(key);
  return v ? v->num_or(def) : def;
}

}  // namespace

std::optional<BenchReport> BenchReport::from_json(std::string_view text,
                                                  std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return std::optional<BenchReport>();
  };
  std::string parse_error;
  const auto root = json::parse(text, &parse_error);
  if (!root) return fail("JSON parse error: " + parse_error);
  if (!root->is_object()) return fail("top level is not an object");

  const json::Value* schema = root->find("schema");
  if (!schema || schema->str_or("") != kReportSchemaName)
    return fail("not a scot-bench report (missing or wrong \"schema\")");
  const json::Value* version = root->find("schema_version");
  const int v = version ? static_cast<int>(version->num_or(0)) : 0;
  if (v < 1 || v > kReportSchemaVersion)
    return fail("unsupported schema_version " + std::to_string(v) +
                " (this build reads <= " +
                std::to_string(kReportSchemaVersion) + ")");

  ReportMeta meta;
  meta.schema_version = v;
  if (const json::Value* m = root->find("meta"); m && m->is_object()) {
    meta.git_sha = get_str(*m, "git_sha");
    meta.compiler = get_str(*m, "compiler");
    meta.flags = get_str(*m, "flags");
    meta.build_type = get_str(*m, "build_type");
    meta.hardware_threads =
        static_cast<unsigned>(get_num(*m, "hardware_threads"));
    meta.timestamp_utc = get_str(*m, "timestamp_utc");
    meta.asym_fence = get_str(*m, "asym_fence");
    if (const json::Value* se = m->find("stats_enabled"))
      meta.stats_enabled =
          se->type == json::Value::Type::kBool && se->boolean;
    meta.noise_floor_pct = get_num(*m, "noise_floor_pct");
  }

  const json::Value* cells = root->find("cells");
  if (!cells || !cells->is_array()) return fail("missing \"cells\" array");

  BenchReport report(std::move(meta));
  for (const json::Value& c : cells->items) {
    if (!c.is_object()) return fail("cell is not an object");
    ReportCell cell;
    cell.bench = get_str(c, "bench");
    cell.label = get_str(c, "label");

    const std::string structure = get_str(c, "structure");
    const auto sid = structure_from_name(structure);
    if (!sid) return fail("unknown structure '" + structure + "'");
    cell.cfg.structure = *sid;

    const std::string scheme = get_str(c, "scheme");
    const auto rid = scheme_from_name(scheme);
    if (!rid) return fail("unknown scheme '" + scheme + "'");
    cell.cfg.scheme = *rid;

    const std::string dist = get_str(c, "dist");
    const auto did = key_dist_from_name(dist.empty() ? "uniform" : dist);
    if (!did) return fail("unknown dist '" + dist + "'");
    cell.cfg.key_dist = *did;

    cell.cfg.threads = static_cast<unsigned>(get_num(c, "threads", 1));
    cell.cfg.key_range = static_cast<std::uint64_t>(get_num(c, "key_range"));
    cell.cfg.read_pct = static_cast<int>(get_num(c, "read_pct"));
    cell.cfg.insert_pct = static_cast<int>(get_num(c, "insert_pct"));
    cell.cfg.delete_pct = static_cast<int>(get_num(c, "delete_pct"));
    cell.cfg.zipf_theta = get_num(c, "zipf_theta", 0.99);
    cell.cfg.seed = static_cast<std::uint64_t>(get_num(c, "seed", 42));
    cell.cfg.millis = static_cast<int>(get_num(c, "millis"));
    cell.cfg.runs = static_cast<unsigned>(get_num(c, "runs", 1));
    cell.cfg.op_budget = static_cast<std::uint64_t>(get_num(c, "op_budget"));
    if (const json::Value* pinned = c.find("pinned"))
      cell.cfg.pin_threads = pinned->type == json::Value::Type::kBool &&
                             pinned->boolean;
    // Reports that predate the knob ran the (only) symmetric path, which
    // the default-on asymmetric runs replace — treat them as comparable.
    if (const json::Value* asym = c.find("asym"))
      cell.cfg.asymmetric_fences =
          asym->type != json::Value::Type::kBool || asym->boolean;
    // Background reclamation defaults to off, and files that predate the
    // knob ran without it — absent means off (never the env default).
    const json::Value* bg = c.find("bg");
    cell.cfg.background_reclaim =
        bg != nullptr && bg->type == json::Value::Type::kBool && bg->boolean;
    cell.cfg.reclaim_interval_us =
        static_cast<unsigned>(get_num(c, "reclaim_interval_us", 100));
    cell.cfg.memory_target =
        static_cast<std::uint64_t>(get_num(c, "memory_target"));
    // v4 serving-layer shape; absent (pre-v4 files and integer-keyed
    // cells) means "not a kv case".
    cell.cfg.value_size = static_cast<std::size_t>(get_num(c, "value_size"));
    cell.cfg.key_len = static_cast<std::size_t>(get_num(c, "key_len"));
    cell.cfg.kv_shards = static_cast<unsigned>(get_num(c, "shards"));
    // v5 container shape; absent (pre-v5 files and map/kv cells) means a
    // mixed run.
    const json::Value* split = c.find("split");
    cell.cfg.split_workload = split != nullptr &&
                              split->type == json::Value::Type::kBool &&
                              split->boolean;

    cell.result.mops = get_num(c, "mops");
    cell.result.total_ops = static_cast<std::uint64_t>(get_num(c, "total_ops"));
    cell.result.seconds = get_num(c, "seconds");
    cell.result.ns_per_op = get_num(c, "ns_per_op");
    cell.result.cycles_per_op = get_num(c, "cycles_per_op");
    cell.result.avg_pending = get_num(c, "avg_pending");
    cell.result.peak_pending =
        static_cast<std::int64_t>(get_num(c, "peak_pending"));
    cell.result.restarts = static_cast<std::uint64_t>(get_num(c, "restarts"));
    cell.result.recoveries =
        static_cast<std::uint64_t>(get_num(c, "recoveries"));
    cell.result.reads = static_cast<std::uint64_t>(get_num(c, "reads"));
    cell.result.inserts = static_cast<std::uint64_t>(get_num(c, "inserts"));
    cell.result.removes = static_cast<std::uint64_t>(get_num(c, "removes"));
    // v2 percentiles; absent in v1 files (and in v2 cells that ran with
    // sampling off) — default 0 either way.
    cell.result.p50_ns = get_num(c, "p50_ns");
    cell.result.p99_ns = get_num(c, "p99_ns");
    cell.result.p999_ns = get_num(c, "p999_ns");
    report.cells_.push_back(std::move(cell));
  }
  return report;
}

std::optional<BenchReport> BenchReport::load_file(const std::string& path,
                                                  std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error) *error = std::strerror(errno);
    return std::nullopt;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error) *error = "read error";
    return std::nullopt;
  }
  return from_json(text, error);
}

}  // namespace scot::bench
