// Benchmark-harness smoke tests: every figure binary funnels through
// run_case(), so a short run per scheme/structure here guards the whole
// bench/ directory against bit-rot.  Maps, containers and the kv store all
// run through the same measured loop, so every concept's driver is here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bench/runner.hpp"
#include "bench/table.hpp"

namespace scot::bench {
namespace {

CaseConfig tiny_case(StructureId s, SchemeId r) {
  CaseConfig cfg;
  cfg.structure = s;
  cfg.scheme = r;
  cfg.threads = 2;
  cfg.key_range = 64;
  cfg.millis = 30;
  cfg.sample_memory = true;
  return cfg;
}

TEST(BenchHarness, RunsEverySchemeOnTheScotList) {
  for (SchemeId s : kAllSchemes) {
    CaseResult r = run_case(tiny_case(StructureId::kHList, s));
    EXPECT_GT(r.total_ops, 0u) << scheme_name(s);
    EXPECT_GT(r.mops, 0.0) << scheme_name(s);
    EXPECT_GE(r.seconds, 0.02) << scheme_name(s);
  }
}

// A short case of every concept: the map structures, each container with
// the mixed roll and with split producer/consumer roles, and the kv store
// at 1 and 8 shards.
std::vector<CaseConfig> every_concept(SchemeId r) {
  std::vector<CaseConfig> cases;
  for (StructureId st :
       {StructureId::kHMList, StructureId::kHList, StructureId::kHListWF,
        StructureId::kNMTree, StructureId::kHashMap})
    cases.push_back(tiny_case(st, r));
  for (StructureId st : kContainerStructures) {
    for (const bool split : {false, true}) {
      CaseConfig cfg = tiny_case(st, r);
      cfg.read_pct = 0;  // containers have no read op
      cfg.insert_pct = 50;
      cfg.delete_pct = 50;
      cfg.split_workload = split;
      cases.push_back(cfg);
    }
  }
  for (const unsigned shards : {1u, 8u}) {
    CaseConfig cfg = tiny_case(StructureId::kKvHash, r);
    cfg.kv_shards = shards;
    cases.push_back(cfg);
  }
  return cases;
}

std::string describe(const CaseConfig& cfg) {
  return std::string(structure_name(cfg.structure)) +
         (cfg.split_workload ? " split" : "") + " shards=" +
         std::to_string(cfg.kv_shards);
}

TEST(BenchHarness, RunsEveryStructureUnderHp) {
  for (const CaseConfig& cfg : every_concept(SchemeId::kHP)) {
    CaseResult r = run_case(cfg);
    EXPECT_GT(r.total_ops, 0u) << describe(cfg);
    EXPECT_EQ(r.reads + r.inserts + r.removes, r.total_ops) << describe(cfg);
    const ContainerKind kind = container_kind(cfg.structure);
    if (kind != ContainerKind::kMap && kind != ContainerKind::kKv) {
      EXPECT_EQ(r.reads, 0u) << describe(cfg);
    }
    if (cfg.split_workload) {  // one producer, one consumer
      EXPECT_GT(r.inserts, 0u) << describe(cfg);
      EXPECT_GT(r.removes, 0u) << describe(cfg);
    }
  }
}

TEST(BenchHarness, MemorySamplerReportsPending) {
  for (const StructureId st : {StructureId::kHList, StructureId::kKvHash}) {
    CaseConfig cfg = tiny_case(st, SchemeId::kEBR);
    cfg.millis = 100;
    cfg.key_range = 512;
    CaseResult r = run_case(cfg);
    // EBR under churn always has *some* retired-but-unreclaimed nodes.
    EXPECT_GT(r.peak_pending, 0) << structure_name(st);
    EXPECT_GE(r.avg_pending, 0.0) << structure_name(st);
  }
}

TEST(BenchHarness, NrNeverReclaims) {
  CaseConfig cfg = tiny_case(StructureId::kHList, SchemeId::kNR);
  cfg.millis = 60;
  CaseResult r = run_case(cfg);
  EXPECT_GT(r.peak_pending, 0) << "NR leaks by design";
}

TEST(BenchHarness, RestartCountersSurface) {
  CaseConfig cfg = tiny_case(StructureId::kHMList, SchemeId::kHP);
  cfg.threads = 4;
  cfg.key_range = 16;
  cfg.millis = 80;
  CaseResult r = run_case(cfg);
  // The HM list restarts under contention (Table 2); on 2 cores the count
  // may be modest but the plumbing must surface it.
  EXPECT_GE(r.restarts, 0u);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(BenchHarness, EnvThreadParsing) {
  setenv("SCOT_BENCH_THREADS", "1,3,7", 1);
  auto v = env_threads();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[1], 3u);
  EXPECT_EQ(v[2], 7u);
  setenv("SCOT_BENCH_THREADS", "garbage", 1);
  EXPECT_FALSE(env_threads().empty()) << "falls back to defaults";
  // Malformed, non-positive or above-cap counts (the per-thread state
  // arrays make kMaxThreads the same ceiling as bench_cli's <threads>)
  // fall back to the default list rather than running a partial or
  // oversized row.  Nothing here starts a thread.
  const std::vector<unsigned> kDefault{1, 2, 4, 8};
  for (const char* bad : {"2x", "0", "-1", "4097", "100000", "1,2x"}) {
    setenv("SCOT_BENCH_THREADS", bad, 1);
    EXPECT_EQ(env_threads(), kDefault) << "SCOT_BENCH_THREADS='" << bad << "'";
  }
  setenv("SCOT_BENCH_THREADS", "4096", 1);
  EXPECT_EQ(env_threads(), std::vector<unsigned>{4096});
  unsetenv("SCOT_BENCH_THREADS");
  EXPECT_EQ(env_threads().size(), 4u);
}

TEST(BenchHarness, EnvMsAndRuns) {
  setenv("SCOT_BENCH_MS", "123", 1);
  EXPECT_EQ(env_ms(999), 123);
  // Non-positive or malformed durations fall back to the default instead
  // of running a grid of empty cells.
  for (const char* bad : {"-5", "0", "abc", "10ms", ""}) {
    setenv("SCOT_BENCH_MS", bad, 1);
    EXPECT_EQ(env_ms(999), 999) << "SCOT_BENCH_MS='" << bad << "'";
  }
  unsetenv("SCOT_BENCH_MS");
  EXPECT_EQ(env_ms(999), 999);
  setenv("SCOT_BENCH_RUNS", "5", 1);
  EXPECT_EQ(env_runs(), 5u);
  for (const char* bad : {"3x", "0", "-2", "abc"}) {
    setenv("SCOT_BENCH_RUNS", bad, 1);
    EXPECT_EQ(env_runs(), 1u) << "SCOT_BENCH_RUNS='" << bad << "'";
  }
  unsetenv("SCOT_BENCH_RUNS");
  EXPECT_EQ(env_runs(), 1u);
}

TEST(BenchHarness, TableFormatsAlignedMarkdown) {
  Table t({"threads", "EBR", "HP"});
  t.add_row({"1", "12.34", "5.67"});
  t.add_row({"128", "1.00", "0.99"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| threads | EBR   | HP   |"), std::string::npos) << s;
  EXPECT_NE(s.find("| 128     | 1.00  | 0.99 |"), std::string::npos) << s;
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(BenchHarness, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_si(1234.0), "1.23k");
  EXPECT_EQ(format_si(1234567.0), "1.23M");
  EXPECT_EQ(format_si(12.0), "12");
  EXPECT_EQ(format_si(2.5e9), "2.50G");
}

TEST(BenchHarness, MedianOfRunsIsStable) {
  CaseConfig cfg = tiny_case(StructureId::kHList, SchemeId::kEBR);
  cfg.runs = 3;
  cfg.millis = 20;
  CaseResult r = run_case(cfg);
  EXPECT_GT(r.total_ops, 0u);
}

}  // namespace
}  // namespace scot::bench
