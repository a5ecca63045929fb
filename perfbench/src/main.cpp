// perfbench: one workload, the five gated schemes, medians over repeated
// cells.  Prints a readable report, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload list-read|tree-update|kv-serve --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--reps N]
//   perfbench --workload W --seed N --inputs-digest   (self-test)
//   perfbench ... --corrupt                           (self-test)
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// protocol and prints the per-layer metrics (README.md lists both).  Exit
// status: 0 = every operation correct, 1 = some operation failed, 2 = bad
// arguments or an internal error (no JSON line).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr unsigned kReps = 10;         // untraced: cells per scheme
constexpr unsigned kTracedReps = 3;    // traced: cells per scheme and pass
constexpr double kWarmupS = 0.1;       // unrecorded, before every cell
constexpr double kFirstWarmupS = 1.0;  // one extra cell before the first

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  unsigned reps = 0;
  bool inputs_digest = false;
  bool corrupt = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload list-read|tree-update|kv-serve "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--reps N] [--inputs-digest] [--corrupt]\n",
               why);
  std::exit(2);
}

template <class T>
T parse_number(std::string_view s, const char* flag) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size())
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage((std::string(a) + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string_view w = value();
      for (const WorkloadSpec& s : kWorkloads)
        if (w == s.name) o.spec = &s;
      if (o.spec == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = parse_number<std::uint64_t>(value(), "--seed");
    } else if (a == "--seconds") {
      o.seconds = parse_number<double>(value(), "--seconds");
      if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
    } else if (a == "--trace") {
      const std::string_view t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--reps") {
      o.reps = parse_number<unsigned>(value(), "--reps");
      if (o.reps == 0 || o.reps > 100) usage("--reps out of range");
    } else if (a == "--inputs-digest") {
      o.inputs_digest = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else {
      usage((std::string("unknown argument ") + std::string(a)).c_str());
    }
  }
  if (o.spec == nullptr) usage("--workload is required");
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metric_name(const char* base, SchemeId s) {
  return std::string(base) + "." + scot::scheme_name(s);
}

double ratio(std::uint64_t num, std::uint64_t den, double scale = 1) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den) *
                            scale;
}

// "median [min..max]" of one metric over the repetitions.
std::string spread(const std::vector<double>& v, const char* fmt) {
  if (v.empty()) return "-";
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[128];
  const std::string f = std::string(fmt) + " [" + fmt + ".." + fmt + "]";
  std::snprintf(buf, sizeof(buf), f.c_str(), median(v), *lo, *hi);
  return buf;
}

template <class F>
std::vector<double> collect(const std::vector<CellResult>& cells, F&& f) {
  std::vector<double> v;
  for (const CellResult& c : cells) v.push_back(f(c));
  return v;
}

class Bench {
 public:
  explicit Bench(const Options& o)
      : o_(o),
        inputs_(make_inputs(*o.spec, o.seed, worker_count())),
        pool_(worker_count()),
        tracer_(pool_.size() + 1),
        ctx_{o.spec, &inputs_, &pool_, &tracer_,
             bench_smr_config(pool_.size())} {}

  std::vector<Metric> run() { return o_.trace ? traced() : untraced(); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  CellResult cell(SchemeId s, double warmup_s, double measure_s, bool traced) {
    const CellPlan plan{s, warmup_s, measure_s, traced, o_.corrupt};
    CellResult r;
    switch (o_.spec->family) {
      case Family::kList: r = run_list_cell(ctx_, plan); break;
      case Family::kTree: r = run_tree_cell(ctx_, plan); break;
      case Family::kKv: r = run_kv_cell(ctx_, plan); break;
    }
    attempted_ += r.attempted;
    failed_ += r.failed;
    return r;
  }

  // An unrecorded extra cell so the first recorded one starts warm.
  void first_warmup(double cell_s) {
    cell(kGatedSchemes[0], kFirstWarmupS, cell_s, false);
  }

  void header(unsigned reps, double cell_s) const {
    std::printf(
        "perfbench workload=%s seed=%llu workers=%u reps=%u cell_s=%.3f "
        "warmup_s=%.2f trace=%d\n",
        o_.spec->name, static_cast<unsigned long long>(o_.seed), pool_.size(),
        reps, cell_s, kWarmupS, o_.trace ? 1 : 0);
  }

  std::vector<Metric> untraced() {
    const unsigned reps = o_.reps != 0 ? o_.reps : kReps;
    const double cell_s = o_.seconds / (reps * kSchemeCount);
    header(reps, cell_s);
    first_warmup(cell_s);
    std::vector<std::vector<CellResult>> cells(kSchemeCount);
    std::vector<double> setups;
    for (unsigned rep = 0; rep < reps; ++rep) {
      // Rotate the scheme order so no scheme always runs first.
      double setup = 0;
      for (unsigned j = 0; j < kSchemeCount; ++j) {
        const unsigned k = (rep + j) % kSchemeCount;
        cells[k].push_back(cell(kGatedSchemes[k], kWarmupS, cell_s, false));
        setup += cells[k].back().setup_s;
      }
      setups.push_back(setup);
    }

    std::printf("  setup_s %s\n", spread(setups, "%.4f").c_str());
    for (unsigned k = 0; k < kSchemeCount; ++k) {
      const auto mops = collect(cells[k], [](auto& c) { return c.mops; });
      const auto p99 = collect(cells[k], [](auto& c) { return c.p99_us; });
      const auto p50 = collect(cells[k], [](auto& c) { return c.p50_us; });
      const auto unr =
          collect(cells[k], [](auto& c) { return c.unreclaimed_avg; });
      std::uint64_t samples = 0;
      for (const CellResult& c : cells[k]) samples += c.latency_samples;
      std::printf(
          "  %-4s mops %s  p50_us %.3f  p99_us %s (%llu samples)  "
          "unreclaimed_avg %s\n",
          scot::scheme_name(kGatedSchemes[k]), spread(mops, "%.3f").c_str(),
          median(p50), spread(p99, "%.3f").c_str(),
          static_cast<unsigned long long>(samples),
          spread(unr, "%.1f").c_str());
    }

    std::vector<Metric> m{{"setup_s", median(setups), "s"}};
    auto per_scheme = [&](const char* base, const char* unit, auto&& f) {
      for (unsigned k = 0; k < kSchemeCount; ++k)
        m.push_back({metric_name(base, kGatedSchemes[k]),
                     median(collect(cells[k], f)), unit});
    };
    per_scheme("mops", "Mops/s", [](auto& c) { return c.mops; });
    per_scheme("p99_us", "us", [](auto& c) { return c.p99_us; });
    per_scheme("unreclaimed_avg", "nodes",
               [](auto& c) { return c.unreclaimed_avg; });
    return m;
  }

  std::vector<Metric> traced() {
    const unsigned reps = o_.reps != 0 ? o_.reps : kTracedReps;
    // Per rep: one untraced cell per gated scheme, one traced cell per
    // gated scheme plus NR.
    const double cell_s = o_.seconds / (reps * (2 * kSchemeCount + 1));
    header(reps, cell_s);
    first_warmup(cell_s);
    std::vector<std::vector<CellResult>> plain(kSchemeCount);
    std::vector<std::vector<CellResult>> traced(kSchemeCount);
    std::vector<CellResult> floor;  // NR, one per rep
    for (unsigned rep = 0; rep < reps; ++rep) {
      for (unsigned j = 0; j < kSchemeCount; ++j) {
        const unsigned k = (rep + j) % kSchemeCount;
        plain[k].push_back(cell(kGatedSchemes[k], kWarmupS, cell_s, false));
      }
      floor.push_back(cell(SchemeId::kNR, kWarmupS, cell_s, true));
      for (unsigned j = 0; j < kSchemeCount; ++j) {
        const unsigned k = (rep + j) % kSchemeCount;
        traced[k].push_back(cell(kGatedSchemes[k], kWarmupS, cell_s, true));
      }
    }
    std::vector<SchemeProbes> probes;
    for (SchemeId s : kGatedSchemes)
      probes.push_back(run_scheme_probes(s, ctx_.smr, &tracer_));
    const double pool_ns = probe_pool_alloc_free_ns(&tracer_);

    const bool kv = o_.spec->family == Family::kKv;
    struct Sums {
      std::uint64_t ops = 0, restarts = 0, recoveries = 0, retires = 0,
                    scans = 0, barriers = 0, reclaimed = 0, peak = 0;
    };
    std::vector<Sums> sums(kSchemeCount);
    std::vector<double> overhead_pct;
    std::vector<double> migrated;
    std::uint64_t gets = 0, hits = 0;
    for (unsigned k = 0; k < kSchemeCount; ++k) {
      for (const CellResult& c : traced[k]) {
        Sums& s = sums[k];
        s.ops += c.run_ops;
        s.restarts += c.restarts;
        s.recoveries += c.recoveries;
        s.retires += c.retires;
        s.scans += c.scans;
        s.barriers += c.heavy_barriers;
        s.reclaimed += c.reclaimed;
        s.peak = std::max(s.peak, c.limbo_peak);
      }
      for (const auto* group : {&plain[k], &traced[k]}) {
        for (const CellResult& c : *group) {
          migrated.push_back(static_cast<double>(c.migrated_buckets));
          gets += c.gets;
          hits += c.get_hits;
        }
      }
      const double plain_mops =
          median(collect(plain[k], [](auto& c) { return c.mops; }));
      const double traced_mops =
          median(collect(traced[k], [](auto& c) { return c.mops; }));
      overhead_pct.push_back(traced_mops > 0
                                 ? (plain_mops / traced_mops - 1) * 100
                                 : 0);
    }

    std::vector<Metric> m;
    auto per_scheme = [&](const char* base, const char* unit, auto&& f) {
      for (unsigned k = 0; k < kSchemeCount; ++k)
        m.push_back({metric_name(base, kGatedSchemes[k]), f(k), unit});
    };
    auto traced_median = [&](unsigned k, auto&& f) {
      return median(collect(traced[k], f));
    };
    static constexpr const char* kOpMetric[kOpKinds] = {
        "core.read_ns", "core.insert_ns", "core.erase_ns"};
    for (unsigned op = 0; op < kOpKinds; ++op)
      per_scheme(kOpMetric[op], "ns", [&](unsigned k) {
        return traced_median(k, [op](auto& c) { return c.op_median_ns[op]; });
      });
    per_scheme("core.restarts_per_kop", "1/kop", [&](unsigned k) {
      return ratio(sums[k].restarts, sums[k].ops, 1e3);
    });
    per_scheme("core.recoveries_per_kop", "1/kop", [&](unsigned k) {
      return ratio(sums[k].recoveries, sums[k].ops, 1e3);
    });
    per_scheme("smr.overhead_ns", "ns", [&](unsigned k) {
      std::vector<double> d;
      for (unsigned rep = 0; rep < reps; ++rep)
        d.push_back(traced[k][rep].all_median_ns - floor[rep].all_median_ns);
      return median(d);
    });
    per_scheme("smr.protect_chase_ns", "ns",
               [&](unsigned k) { return probes[k].protect_chase_ns; });
    per_scheme("smr.begin_end_op_ns", "ns",
               [&](unsigned k) { return probes[k].begin_end_op_ns; });
    per_scheme("smr.retire_ns", "ns",
               [&](unsigned k) { return probes[k].retire_ns; });
    per_scheme("smr.retires_per_op", "1/op", [&](unsigned k) {
      return ratio(sums[k].retires, sums[k].ops);
    });
    per_scheme("smr.scans_per_kop", "1/kop", [&](unsigned k) {
      return ratio(sums[k].scans, sums[k].ops, 1e3);
    });
    per_scheme("smr.heavy_barriers_per_kop", "1/kop", [&](unsigned k) {
      return ratio(sums[k].barriers, sums[k].ops, 1e3);
    });
    per_scheme("smr.scan_p99_us", "us", [&](unsigned k) {
      return traced_median(k, [](auto& c) { return c.scan_p99_us; });
    });
    per_scheme("smr.reclaim_ratio", "ratio", [&](unsigned k) {
      return ratio(sums[k].reclaimed, sums[k].retires);
    });
    per_scheme("smr.limbo_peak", "nodes", [&](unsigned k) {
      return static_cast<double>(sums[k].peak);
    });
    m.push_back({"pool.alloc_free_ns", pool_ns, "ns"});
    // kv-layer metrics read 0 on the workloads that do not use the store.
    per_scheme("kv.load_s", "s", [&](unsigned k) {
      if (!kv) return 0.0;
      auto all = collect(plain[k], [](auto& c) { return c.setup_s; });
      for (const CellResult& c : traced[k]) all.push_back(c.setup_s);
      return median(all);
    });
    m.push_back({"kv.migrated_buckets", kv ? median(migrated) : 0, "count"});
    m.push_back({"kv.get_hit_ratio", kv ? ratio(hits, gets) : 0, "ratio"});
    m.push_back({"bench.trace_overhead_pct", median(overhead_pct), "%"});

    for (const Metric& x : m)
      std::printf("  %-30s %14.4f %s\n", x.name.c_str(), x.value, x.unit);
    if (!o_.trace_out.empty()) {
      if (tracer_.write_chrome_json(o_.trace_out))
        std::printf("  spans written to %s\n", o_.trace_out.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o_.trace_out.c_str());
    }
    return m;
  }

  const Options& o_;
  Inputs inputs_;
  WorkerPool pool_;
  Tracer tracer_;
  CellContext ctx_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void print_result(const Bench& b, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += b.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(b.attempted());
  out += ", \"failed\": " + std::to_string(b.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  try {
    if (o.inputs_digest) {
      const Inputs in = make_inputs(*o.spec, o.seed, worker_count());
      std::uint64_t streams = 0xcbf29ce484222325ULL;
      for (const auto& s : in.streams) streams = digest(s, streams);
      std::printf("%s seed=%llu workers=%u prefill=%zu prefill_digest=%016llx "
                  "streams_digest=%016llx\n",
                  o.spec->name, static_cast<unsigned long long>(o.seed),
                  worker_count(), in.prefill.size(),
                  static_cast<unsigned long long>(digest(in.prefill)),
                  static_cast<unsigned long long>(streams));
      return 0;
    }
    Bench bench(o);
    const std::vector<Metric> metrics = bench.run();
    std::printf("  attempted %llu  failed %llu\n",
                static_cast<unsigned long long>(bench.attempted()),
                static_cast<unsigned long long>(bench.failed()));
    std::fflush(stdout);
    print_result(bench, metrics);
    return bench.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
