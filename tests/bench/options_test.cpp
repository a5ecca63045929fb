// Unit tests for the bench-harness option layer (src/bench/options.hpp):
// CaseConfig defaults, scheme/structure name resolution, and strict
// rejection of malformed paper-CLI argument vectors.  bench_cli.cpp is a
// thin shell around parse_cli(), so this is the direct coverage the CLI
// previously only got by running the binary.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/options.hpp"

namespace scot::bench {
namespace {

// Builds argc/argv the way main() sees them: argv[0] is the program name.
std::optional<CaseConfig> parse(std::vector<const char*> args,
                                std::string* error = nullptr) {
  args.insert(args.begin(), "bench_cli");
  return parse_cli(static_cast<int>(args.size()), args.data(), error);
}

const std::vector<const char*> kGoodArgs = {"listlf", "2",  "512", "1", "50",
                                            "25",     "25", "EBR", "4"};

TEST(Options, CaseConfigDefaultsMatchPaperHeadline) {
  const CaseConfig cfg;
  EXPECT_EQ(cfg.structure, StructureId::kHList);
  EXPECT_EQ(cfg.scheme, SchemeId::kEBR);
  EXPECT_EQ(cfg.threads, 1u);
  EXPECT_EQ(cfg.key_range, 512u);
  EXPECT_EQ(cfg.read_pct, 50);
  EXPECT_EQ(cfg.insert_pct, 25);
  EXPECT_EQ(cfg.delete_pct, 25);
  EXPECT_EQ(cfg.millis, 300);
  EXPECT_FALSE(cfg.sample_memory);
  EXPECT_EQ(cfg.runs, 1u);
  EXPECT_EQ(cfg.hash_buckets, 0u);
}

TEST(Options, SchemeNamesRoundTrip) {
  for (SchemeId s : kAllSchemes) {
    const auto back = scheme_from_name(scheme_name(s));
    ASSERT_TRUE(back.has_value()) << scheme_name(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(scheme_from_name("QSBR").has_value());
  EXPECT_FALSE(scheme_from_name("ebr").has_value()) << "names are case-exact";
  EXPECT_FALSE(scheme_from_name("").has_value());
}

TEST(Options, StructureModesResolve) {
  EXPECT_EQ(structure_from_mode("listlf"), StructureId::kHList);
  EXPECT_EQ(structure_from_mode("listwf"), StructureId::kHListWF);
  EXPECT_EQ(structure_from_mode("listhm"), StructureId::kHMList);
  EXPECT_EQ(structure_from_mode("tree"), StructureId::kNMTree);
  EXPECT_EQ(structure_from_mode("hash"), StructureId::kHashMap);
  EXPECT_EQ(structure_from_mode("skip"), StructureId::kSkipList);
  EXPECT_EQ(structure_from_mode("skiphs"), StructureId::kSkipListEager);
  EXPECT_EQ(structure_from_mode("queue"), StructureId::kMSQueue);
  EXPECT_EQ(structure_from_mode("stack"), StructureId::kTreiberStack);
  EXPECT_EQ(structure_from_mode("deque"), StructureId::kDeque);
  EXPECT_FALSE(structure_from_mode("ring").has_value());
  EXPECT_FALSE(structure_from_mode("").has_value());
}

TEST(Options, ContainerKindPartitionsTheStructureIds) {
  using scot::ContainerKind;
  using scot::container_kind;
  // Every map-grid structure is map-kind; the other concepts each own
  // their table; kNone stands alone.  The bench runner and the facade
  // make() checks dispatch on exactly this partition.
  for (StructureId s : kAllStructures)
    EXPECT_EQ(container_kind(s), ContainerKind::kMap) << structure_name(s);
  for (StructureId s : scot::kAblationStructures)
    EXPECT_EQ(container_kind(s), ContainerKind::kMap) << structure_name(s);
  for (StructureId s : scot::kKvStructures)
    EXPECT_EQ(container_kind(s), ContainerKind::kKv) << structure_name(s);
  EXPECT_EQ(container_kind(StructureId::kMSQueue), ContainerKind::kQueue);
  EXPECT_EQ(container_kind(StructureId::kTreiberStack), ContainerKind::kStack);
  EXPECT_EQ(container_kind(StructureId::kDeque), ContainerKind::kDeque);
  EXPECT_EQ(container_kind(StructureId::kNone), ContainerKind::kNone);
  EXPECT_STREQ(scot::container_kind_name(ContainerKind::kQueue), "queue");
  EXPECT_STREQ(scot::container_kind_name(ContainerKind::kStack), "stack");
  EXPECT_STREQ(scot::container_kind_name(ContainerKind::kDeque), "deque");
}

TEST(Options, ContainerStructuresResolveButStayOutOfMapGrids) {
  for (StructureId c : scot::kContainerStructures) {
    const auto back = structure_from_name(structure_name(c));
    ASSERT_TRUE(back.has_value()) << structure_name(c);
    EXPECT_EQ(*back, c);
    for (StructureId s : kAllStructures) EXPECT_NE(s, c);
  }
}

TEST(Options, NameTablesAreTheRuntimeRegistries) {
  // Since API v2 the bench layer re-exports identity from the library's
  // runtime registries (src/smr/registry.hpp, src/core/registry.hpp): the
  // types are literally the same, and every CLI name resolves through the
  // registry tables — no second copy to drift.
  static_assert(std::is_same_v<SchemeId, scot::SchemeId>);
  static_assert(std::is_same_v<StructureId, scot::StructureId>);
  for (SchemeId s : kAllSchemes) {
    EXPECT_STREQ(scheme_name(s), scot::scheme_info(s).name);
    EXPECT_EQ(scot::scheme_from_name(scheme_name(s)), s);
  }
  // kStructureInfos has one row per StructureId, in enum order, and every
  // row — ablation variants, kv, containers and kNone included — round-
  // trips through its name and (when it has one) its CLI mode.
  ASSERT_EQ(std::size(scot::kStructureInfos),
            static_cast<std::size_t>(StructureId::kNone) + 1);
  for (std::size_t i = 0; i < std::size(scot::kStructureInfos); ++i) {
    const auto d = static_cast<StructureId>(i);
    const scot::StructureInfo& info = scot::kStructureInfos[i];
    EXPECT_EQ(info.id, d) << info.name;
    EXPECT_STREQ(structure_name(d), info.name);
    EXPECT_EQ(scot::structure_from_name(structure_name(d)), d);
    if (info.mode != nullptr) {
      EXPECT_EQ(structure_from_mode(info.mode), d);
    }
  }
  // The registry's robustness column mirrors Domain::kRobust (statically
  // asserted against the domain types in with_scheme, src/smr/smr.hpp);
  // spot-check the two families here.
  EXPECT_FALSE(scot::scheme_info(SchemeId::kEBR).robust);
  EXPECT_TRUE(scot::scheme_info(SchemeId::kHP).robust);
}

TEST(Options, StructureNamesAreDistinct) {
  const StructureId all[] = {
      StructureId::kHMList,  StructureId::kHList,    StructureId::kHListWF,
      StructureId::kNMTree,  StructureId::kHashMap,  StructureId::kSkipList,
      StructureId::kSkipListEager};
  for (StructureId a : all) {
    for (StructureId b : all) {
      if (a != b) {
        EXPECT_STRNE(structure_name(a), structure_name(b));
      }
    }
  }
}

TEST(Options, ParseCliAcceptsThePaperExample) {
  std::string error;
  const auto cfg = parse(kGoodArgs, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->structure, StructureId::kHList);
  EXPECT_EQ(cfg->scheme, SchemeId::kEBR);
  EXPECT_EQ(cfg->millis, 2000);
  EXPECT_EQ(cfg->key_range, 512u);
  EXPECT_EQ(cfg->runs, 1u);
  EXPECT_EQ(cfg->read_pct, 50);
  EXPECT_EQ(cfg->insert_pct, 25);
  EXPECT_EQ(cfg->delete_pct, 25);
  EXPECT_EQ(cfg->threads, 4u);
  EXPECT_TRUE(cfg->sample_memory) << "the CLI always samples memory";
}

TEST(Options, ParseCliAcceptsEverySchemeAndMode) {
  for (SchemeId s : kAllSchemes) {
    for (const char* mode :
         {"listlf", "listwf", "listhm", "tree", "hash", "skip", "skiphs"}) {
      auto args = kGoodArgs;
      args[0] = mode;
      args[7] = scheme_name(s);
      EXPECT_TRUE(parse(args).has_value())
          << mode << " under " << scheme_name(s);
    }
  }
}

TEST(Options, ParseCliRejectsWrongArity) {
  std::string error;
  EXPECT_FALSE(parse({}, &error).has_value());
  EXPECT_FALSE(parse({"listlf"}, &error).has_value());
  auto extra = kGoodArgs;
  extra.push_back("surplus");
  EXPECT_FALSE(parse(extra, &error).has_value());
  EXPECT_NE(error.find("9 arguments"), std::string::npos) << error;
}

TEST(Options, ParseCliRejectsUnknownModeAndScheme) {
  auto bad_mode = kGoodArgs;
  bad_mode[0] = "ring";
  std::string error;
  EXPECT_FALSE(parse(bad_mode, &error).has_value());
  EXPECT_NE(error.find("unknown mode"), std::string::npos) << error;

  auto bad_scheme = kGoodArgs;
  bad_scheme[7] = "RCU";
  EXPECT_FALSE(parse(bad_scheme, &error).has_value());
  EXPECT_NE(error.find("unknown scheme"), std::string::npos) << error;
}

TEST(Options, ParseCliRejectsMalformedNumbers) {
  // One malformed numeric field at a time; index into kGoodArgs.
  const struct { int index; const char* value; } cases[] = {
      {1, "abc"},   // seconds not a number
      {1, "2x"},    // trailing garbage
      {1, "0"},     // zero duration
      {1, "-1"},    // negative duration
      {2, "1.5"},   // fractional keyrange
      {2, "0"},     // zero keyrange
      {2, ""},      // empty keyrange
      {3, "0"},     // zero runs
      {4, "101"},   // read% out of range
      {4, "-5"},    // negative read%
      {8, "0"},     // zero threads
      {8, ""},      // empty threads
      // Values that pass "positive" but would wrap the narrowing casts or
      // blow up per-thread state allocation.
      {1, "3000000"},     // seconds*1000 would overflow int millis
      {3, "4294967296"},  // runs > UINT_MAX would truncate to 0
      {8, "4097"},        // threads above the 4096 sanity cap
      {8, "4294967295"},  // UINT_MAX threads: representable memory bomb
  };
  for (const auto& c : cases) {
    auto args = kGoodArgs;
    args[static_cast<std::size_t>(c.index)] = c.value;
    std::string error;
    EXPECT_FALSE(parse(args, &error).has_value())
        << "index " << c.index << " value '" << c.value << "' parsed OK";
    EXPECT_FALSE(error.empty());
  }
}

TEST(Options, ParseCliRejectsMixNotSummingTo100) {
  auto args = kGoodArgs;
  args[4] = "50";
  args[5] = "30";
  args[6] = "30";
  std::string error;
  EXPECT_FALSE(parse(args, &error).has_value());
  EXPECT_NE(error.find("sum to 100"), std::string::npos) << error;

  args[4] = "90";
  args[5] = "5";
  args[6] = "5";
  EXPECT_TRUE(parse(args).has_value());
}

// --- container modes (queue/stack/deque) ----------------------------------

TEST(Options, ParseCliAcceptsContainerModesWithPushPopMix) {
  for (const char* mode : {"queue", "stack", "deque"}) {
    auto args = kGoodArgs;
    args[0] = mode;
    args[4] = "0";   // no read op
    args[5] = "50";  // push share
    args[6] = "50";  // pop share
    std::string error;
    const auto cfg = parse(args, &error);
    ASSERT_TRUE(cfg.has_value()) << mode << ": " << error;
    EXPECT_EQ(cfg->read_pct, 0);
    EXPECT_EQ(cfg->insert_pct, 50);
    EXPECT_EQ(cfg->delete_pct, 50);
    EXPECT_FALSE(cfg->split_workload) << "mixed is the default";
  }
}

TEST(Options, ParseCliRejectsReadsForContainerModes) {
  for (const char* mode : {"queue", "stack", "deque"}) {
    auto args = kGoodArgs;  // 50/25/25 — reads in a readless concept
    args[0] = mode;
    std::string error;
    EXPECT_FALSE(parse(args, &error).has_value()) << mode;
    EXPECT_NE(error.find("<read%> must be 0"), std::string::npos) << error;
  }
  // The check runs after preset application, so a read-bearing preset on a
  // container mode fails loudly too.
  std::vector<const char*> preset_args = {"queue", "2",  "512", "1", "0",
                                          "50",    "50", "EBR", "4",
                                          "--preset", "mixed"};
  std::string error;
  EXPECT_FALSE(parse(preset_args, &error).has_value());
  EXPECT_NE(error.find("<read%> must be 0"), std::string::npos) << error;
}

TEST(Options, SplitFlagPlumbsIntoContainerConfig) {
  std::vector<const char*> args = {"queue", "2",  "512", "1", "0",
                                   "50",    "50", "EBR", "4", "--split"};
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->split_workload);
}

TEST(Options, SplitFlagIsRejectedForMapModes) {
  auto args = kGoodArgs;
  args.push_back("--split");
  std::string error;
  EXPECT_FALSE(parse(args, &error).has_value());
  EXPECT_NE(error.find("--split"), std::string::npos) << error;
}

// --- optional flag layer (--seed/--json/--dist/...) -----------------------

TEST(Options, UnknownFlagsAreRejectedNotIgnored) {
  auto args = kGoodArgs;
  args.push_back("--frobnicate");
  std::string error;
  EXPECT_FALSE(parse(args, &error).has_value());
  EXPECT_NE(error.find("unknown flag '--frobnicate'"), std::string::npos)
      << error;
}

TEST(Options, SeedFlagPlumbsIntoConfig) {
  auto args = kGoodArgs;
  args.push_back("--seed");
  args.push_back("12345");
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->seed, 12345u);
  EXPECT_EQ(parse(kGoodArgs)->seed, 42u) << "default seed is fixed";
}

TEST(Options, MalformedFlagValuesAreRejected) {
  const struct {
    const char* flag;
    const char* value;  // nullptr = flag given without a value
  } cases[] = {
      {"--seed", "abc"},    {"--seed", "-1"},      {"--seed", nullptr},
      {"--json", nullptr},  {"--dist", "normal"},  {"--dist", nullptr},
      {"--theta", "0"},     {"--theta", "1"},      {"--theta", "1.5"},
      {"--theta", "x"},     {"--preset", "spicy"}, {"--preset", nullptr},
      {"--ops", "0"},       {"--ops", "-5"},       {"--ops", "1x"},
      {"--value-size", "0"},     {"--value-size", "4097"},
      {"--value-size", nullptr}, {"--value-size", "2x"},
      {"--key-len", "0"},        {"--key-len", "1025"},
      {"--key-len", nullptr},    {"--shards", "0"},
      {"--shards", "65537"},     {"--shards", nullptr},
      // A following flag is not a value: --json must not swallow --pin.
      {"--json", "--pin"},  {"--seed", "--pin"},
  };
  for (const auto& c : cases) {
    auto args = kGoodArgs;
    args.push_back(c.flag);
    if (c.value != nullptr) args.push_back(c.value);
    std::string error;
    EXPECT_FALSE(parse(args, &error).has_value())
        << c.flag << " " << (c.value ? c.value : "<none>");
    EXPECT_FALSE(error.empty());
  }
}

TEST(Options, FlagsMayAppearAnywhere) {
  std::vector<const char*> args = {"--seed", "9", "listlf", "2",  "512",
                                   "1",      "50", "25",     "25", "EBR",
                                   "--pin",  "4"};
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->seed, 9u);
  EXPECT_TRUE(cfg->pin_threads);
  EXPECT_EQ(cfg->threads, 4u);
}

TEST(Options, DistAndThetaConfigureZipfian) {
  auto args = kGoodArgs;
  for (const char* extra : {"--dist", "zipfian", "--theta", "0.8"})
    args.push_back(extra);
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->key_dist, KeyDist::kZipfian);
  EXPECT_DOUBLE_EQ(cfg->zipf_theta, 0.8);
  EXPECT_EQ(parse(kGoodArgs)->key_dist, KeyDist::kUniform);
}

TEST(Options, PresetOverridesPositionalMix) {
  auto args = kGoodArgs;
  args.push_back("--preset");
  args.push_back("read-mostly");
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->read_pct, 90);
  EXPECT_EQ(cfg->insert_pct, 5);
  EXPECT_EQ(cfg->delete_pct, 5);
}

TEST(Options, OpsFlagSetsBudget) {
  auto args = kGoodArgs;
  args.push_back("--ops");
  args.push_back("100000");
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->op_budget, 100000u);
  EXPECT_EQ(parse(kGoodArgs)->op_budget, 0u) << "default is a timed run";
}

TEST(Options, NoAsymFlagDisablesAsymmetricFences) {
  EXPECT_TRUE(parse(kGoodArgs)->asymmetric_fences) << "default is on";
  auto args = kGoodArgs;
  args.push_back("--no-asym");
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_FALSE(cfg->asymmetric_fences);
  // --asym re-arms (last flag wins is NOT the contract; both set the same
  // field, the explicit spelling merely exists for A/B scripting).
  auto args2 = kGoodArgs;
  args2.push_back("--asym");
  ASSERT_TRUE(parse(args2).has_value());
  EXPECT_TRUE(parse(args2)->asymmetric_fences);
}

TEST(Options, MicroStructureNoneResolvesButIsNotIterable) {
  EXPECT_EQ(structure_from_name("none"), StructureId::kNone);
  for (StructureId s : kAllStructures) {
    EXPECT_NE(s, StructureId::kNone) << "grids must never iterate 'none'";
  }
  EXPECT_FALSE(structure_from_mode("none").has_value())
      << "'none' is not a paper-CLI mode";
}

TEST(Options, AblationStructuresResolveButStayOutOfGrids) {
  // The trait-ablation identities (scot_figs ablation_*) must round-trip
  // through the name table — their JSON cells are loaded strictly by
  // bench_diff — but never appear in the figure grids or the AnyMap
  // cross-product tests.
  EXPECT_EQ(structure_from_name("HListNoRec"),
            StructureId::kHListNoRecovery);
  EXPECT_EQ(structure_from_name("HListSimple"), StructureId::kHListSimple);
  for (StructureId a : scot::kAblationStructures) {
    const auto back = structure_from_name(structure_name(a));
    ASSERT_TRUE(back.has_value()) << structure_name(a);
    EXPECT_EQ(*back, a);
    for (StructureId s : kAllStructures) EXPECT_NE(s, a);
    EXPECT_FALSE(structure_from_mode(structure_name(a)).has_value())
        << "ablation variants are not paper-CLI modes";
  }
}

TEST(Options, JsonPathSurfacesThroughBenchFlags) {
  auto args = kGoodArgs;
  args.push_back("--json");
  args.push_back("out.json");
  args.insert(args.begin(), "bench_cli");
  std::string error;
  BenchFlags flags;
  const auto cfg = parse_cli(static_cast<int>(args.size()), args.data(),
                             &error, &flags);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(flags.json_path, "out.json");
}

TEST(Options, HelpFlagSurfacesEvenThoughParseFails) {
  std::vector<const char*> args = {"bench_cli", "--help"};
  std::string error;
  BenchFlags flags;
  EXPECT_FALSE(parse_cli(static_cast<int>(args.size()), args.data(), &error,
                         &flags)
                   .has_value());
  EXPECT_TRUE(flags.help);
}

TEST(Options, PresetNamesResolve) {
  ASSERT_TRUE(preset_from_name("mixed").has_value());
  EXPECT_EQ(preset_from_name("mixed")->read_pct, 50);
  ASSERT_TRUE(preset_from_name("write-heavy").has_value());
  EXPECT_EQ(preset_from_name("write-heavy")->read_pct, 10);
  EXPECT_FALSE(preset_from_name("MIXED").has_value()) << "case-exact";
  EXPECT_FALSE(preset_from_name("").has_value());
}

TEST(Options, YcsbPresetsResolveWithNoDeletes) {
  const struct {
    const char* name;
    int read, write;
  } cases[] = {{"ycsb-a", 50, 50}, {"ycsb-b", 95, 5}, {"ycsb-c", 100, 0}};
  for (const auto& c : cases) {
    const auto p = preset_from_name(c.name);
    ASSERT_TRUE(p.has_value()) << c.name;
    EXPECT_EQ(p->read_pct, c.read) << c.name;
    EXPECT_EQ(p->insert_pct, c.write) << c.name;
    EXPECT_EQ(p->delete_pct, 0) << c.name;
    EXPECT_EQ(p->read_pct + p->insert_pct + p->delete_pct, 100) << c.name;
  }
  EXPECT_FALSE(preset_from_name("ycsb-d").has_value());
  // And through the CLI: a YCSB preset overrides the positional mix the
  // same way the classic presets do.
  auto args = kGoodArgs;
  args.push_back("--preset");
  args.push_back("ycsb-b");
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->read_pct, 95);
  EXPECT_EQ(cfg->insert_pct, 5);
  EXPECT_EQ(cfg->delete_pct, 0);
  // An unknown preset's error names every accepted one.
  args = kGoodArgs;
  args.push_back("--preset");
  args.push_back("ycsb-d");
  std::string error;
  EXPECT_FALSE(parse(args, &error).has_value());
  for (const char* name : {"mixed", "read-mostly", "write-heavy", "ycsb-a",
                           "ycsb-b", "ycsb-c"}) {
    ASSERT_TRUE(preset_from_name(name).has_value()) << name;
    EXPECT_NE(error.find(name), std::string::npos) << error;
  }
}

TEST(Options, KvShapeFlagsPlumbIntoConfig) {
  EXPECT_EQ(parse(kGoodArgs)->value_size, 0u) << "0 = not a kv case";
  EXPECT_EQ(parse(kGoodArgs)->key_len, 0u);
  EXPECT_EQ(parse(kGoodArgs)->kv_shards, 0u);
  auto args = kGoodArgs;
  for (const char* extra :
       {"--value-size", "1024", "--key-len", "24", "--shards", "8"})
    args.push_back(extra);
  const auto cfg = parse(args);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->value_size, 1024u);
  EXPECT_EQ(cfg->key_len, 24u);
  EXPECT_EQ(cfg->kv_shards, 8u);
  // Boundary values are accepted (the serving layer's pooled-cell ceiling
  // and the 16-bit shard router).
  auto args2 = kGoodArgs;
  for (const char* extra :
       {"--value-size", "4096", "--key-len", "1024", "--shards", "65536"})
    args2.push_back(extra);
  ASSERT_TRUE(parse(args2).has_value());
}

TEST(Options, KeyDistNamesRoundTrip) {
  EXPECT_EQ(key_dist_from_name("uniform"), KeyDist::kUniform);
  EXPECT_EQ(key_dist_from_name("zipfian"), KeyDist::kZipfian);
  EXPECT_EQ(key_dist_from_name("zipf"), KeyDist::kZipfian) << "shorthand";
  EXPECT_FALSE(key_dist_from_name("gaussian").has_value());
  EXPECT_EQ(key_dist_from_name(key_dist_name(KeyDist::kUniform)),
            KeyDist::kUniform);
  EXPECT_EQ(key_dist_from_name(key_dist_name(KeyDist::kZipfian)),
            KeyDist::kZipfian);
}

TEST(Options, StructureNamesRoundTrip) {
  for (StructureId s : kAllStructures) {
    const auto back = structure_from_name(structure_name(s));
    ASSERT_TRUE(back.has_value()) << structure_name(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(structure_from_name("BTree").has_value());
}

TEST(Options, ParseDoubleIsStrict) {
  double v = -1;
  EXPECT_TRUE(parse_double("0.5", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(parse_double("-2.25", v));
  EXPECT_DOUBLE_EQ(v, -2.25);
  EXPECT_TRUE(parse_double(".5", v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double(" 0.5", v));
  EXPECT_FALSE(parse_double("0.5 ", v));
  EXPECT_FALSE(parse_double("0.5x", v));
  EXPECT_FALSE(parse_double("inf", v));
  EXPECT_FALSE(parse_double("nan", v));
  EXPECT_FALSE(parse_double("0x.8p0", v)) << "C99 hex floats";
  EXPECT_FALSE(parse_double("0X1p3", v));
}

TEST(Options, ParseDecimalIsStrict) {
  long long v = -1;
  EXPECT_TRUE(parse_decimal("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_decimal("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_decimal("", v));
  EXPECT_FALSE(parse_decimal(" 42", v));
  EXPECT_FALSE(parse_decimal("42 ", v));
  EXPECT_FALSE(parse_decimal("0x10", v));
  EXPECT_FALSE(parse_decimal("99999999999999999999999999", v)) << "overflow";
}

}  // namespace
}  // namespace scot::bench
