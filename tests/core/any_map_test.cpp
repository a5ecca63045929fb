// scot::AnyMap coverage: every SchemeId x map-structure cell must be
// constructible through the facade and behave like a set/map under
// single-threaded semantics and a small concurrent churn.  If a case goes
// missing from AnyMap::make(), the cross-product walk below fails by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "scot.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

AnyMapOptions small_options(unsigned threads = 2) {
  AnyMapOptions options;
  options.smr = test::small_config(threads);
  options.smr.track_stats = true;  // the leak check reads pending_nodes()
  options.hash_buckets = 16;
  return options;
}

std::string cell_name(SchemeId s, StructureId d) {
  return std::string(scheme_name(s)) + "/" + structure_name(d);
}

// make() over every SchemeId x StructureId: each map-concept structure
// (grid and ablation rows) builds a cell; every other pair — kv,
// containers and kNone — is nullopt.
TEST(AnyMap, MakeCoversExactlyTheMapConcept) {
  for (SchemeId s : kAllSchemes) {
    for (const StructureInfo& d : kStructureInfos) {
      const bool in_concept = d.kind == ContainerKind::kMap;
      EXPECT_EQ(AnyMap::make(s, d.id, small_options()).has_value(), in_concept)
          << cell_name(s, d.id);
    }
  }
}

// The trait-ablation variants are real cells (scot_figs' ablation_* grids
// route through run_case / AnyMap), built for every scheme even though the grids
// never iterate them.
TEST(AnyMap, AblationVariantCellsAreRegisteredAndFunctional) {
  for (SchemeId s : kAllSchemes) {
    for (StructureId d : scot::kAblationStructures) {
      SCOPED_TRACE(cell_name(s, d));
      auto map = AnyMap::make(s, d, small_options());
      ASSERT_TRUE(map.has_value());
      auto s = map->session();
      EXPECT_TRUE(s.insert(7, 70));
      EXPECT_TRUE(s.contains(7));
      EXPECT_FALSE(s.contains(8));
      EXPECT_TRUE(s.erase(7));
      EXPECT_FALSE(s.contains(7));
    }
  }
}

TEST(AnyMap, ReportsItsIdentity) {
  auto map = AnyMap::make(SchemeId::kHLN, StructureId::kSkipList,
                          small_options());
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->scheme(), SchemeId::kHLN);
  EXPECT_EQ(map->structure(), StructureId::kSkipList);
  EXPECT_STREQ(map->scheme_name(), "HLN");
  EXPECT_STREQ(map->structure_name(), "SkipList");
}

TEST(AnyMap, StatsSnapshotReflectsWorkload) {
  auto map = AnyMap::make(SchemeId::kEBR, StructureId::kHMList,
                          small_options());
  ASSERT_TRUE(map.has_value());
  auto session = map->session();
  for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(session.insert(k, k));
  for (std::uint64_t k = 0; k < 32; ++k) ASSERT_TRUE(session.erase(k));
  const obs::StatsSnapshot s = map->stats();
  // Every erase retires the unlinked node through the facade's domain.
  EXPECT_GE(s.retired_total, 32u);
  if (!s.enabled) GTEST_SKIP() << "stats compiled out (SCOT_STATS=0)";
  EXPECT_GT(s.joins, 0u);
  EXPECT_NE(s.to_string().find("retired_total: "), std::string::npos);
}

// Single-threaded set/map semantics + iterate smoke + leak check, for every
// grid cell.
TEST(AnyMap, EveryCellSingleThreadedSemantics) {
  constexpr std::uint64_t kKeys = 64;
  for (SchemeId s : kAllSchemes) {
    for (StructureId d : kAllStructures) {
      SCOPED_TRACE(cell_name(s, d));
      auto map = AnyMap::make(s, d, small_options());
      ASSERT_TRUE(map.has_value());
      auto session = map->session();

      for (std::uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_TRUE(session.insert(k, k * 10));
        EXPECT_FALSE(session.insert(k, k)) << "duplicate insert must fail";
      }
      EXPECT_EQ(map->size_unsafe(), kKeys);  // full iteration
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_TRUE(session.contains(k));
        const auto v = session.get(k);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, k * 10);
      }
      for (std::uint64_t k = 0; k < kKeys; k += 2) {
        EXPECT_TRUE(session.erase(k));
        EXPECT_FALSE(session.erase(k)) << "double erase must fail";
      }
      EXPECT_EQ(map->size_unsafe(), kKeys / 2);
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_EQ(session.contains(k), k % 2 == 1);
      }

      // Leak check via the domain-wide gauge: when quiescent, the
      // retired-but-unreclaimed count is bounded by what the scheme is
      // allowed to park (per-thread limbo below the scan threshold, plus an
      // unsealed Hyaline batch).  NR is exempt: leaking is its contract.
      EXPECT_GE(map->pending_nodes(), 0);
      if (s != SchemeId::kNR) {
        const SmrConfig cfg = small_options().smr;
        const std::int64_t bound =
            static_cast<std::int64_t>(cfg.max_threads) *
            (cfg.scan_threshold + cfg.max_threads + 8);
        EXPECT_LE(map->pending_nodes(), bound);
      }
    }
  }
}

// Two-thread churn through the facade: exercises guards, protection slots
// and reclamation under contention for every cell.
TEST(AnyMap, EveryCellConcurrentChurnSmoke) {
  const int iters = test::scaled_iters(600);
  constexpr std::uint64_t kRange = 32;
  for (SchemeId s : kAllSchemes) {
    for (StructureId d : kAllStructures) {
      SCOPED_TRACE(cell_name(s, d));
      auto map = AnyMap::make(s, d, small_options(2));
      ASSERT_TRUE(map.has_value());
      test::run_threads(2, [&](unsigned tid) {
        auto session = map->session();
        Xoshiro256 rng(0xA11CE + tid);
        for (int i = 0; i < iters; ++i) {
          const std::uint64_t k = rng.next_in(kRange);
          switch (rng.next_in(3)) {
            case 0: session.insert(k, k); break;
            case 1: session.erase(k); break;
            default: session.contains(k); break;
          }
        }
      });
      EXPECT_LE(map->size_unsafe(), kRange);
      EXPECT_GE(map->pending_nodes(), 0);
      // Restart telemetry must be readable through the facade (the count
      // itself is workload-dependent).
      (void)map->restarts();
      (void)map->recoveries();
    }
  }
}

// ---- String-keyed cells (scot::KvStore, src/kv/) --------------------------
// The serving layer reuses the same facade skeleton with typed
// (string) keys, so the cross-product checks live here next to their
// integer-keyed siblings, over one-shard stores.  Deeper resize/hammer
// coverage is kv_store_test.

KvStoreOptions small_kv_options(unsigned threads = 2) {
  KvStoreOptions options;
  options.smr = test::small_config(threads);
  options.smr.track_stats = true;
  options.shards = 1;
  options.initial_buckets_per_shard = 8;
  return options;
}

// Every scheme serves the KvHash cell with arbitrary byte-string keys and
// values: insert-vs-update distinction, read-back, erase, and keys that
// are not C strings (embedded NUL).
TEST(KvStore, StringKeyedCellSemanticsAllSchemes) {
  const std::string nul_key = std::string("a\0b", 3);
  for (SchemeId s : kAllSchemes) {
    for (StructureId d : kKvStructures) {
      SCOPED_TRACE(cell_name(s, d));
      auto kv = KvStore::make(s, d, small_kv_options());
      ASSERT_TRUE(kv.has_value());
      auto session = kv->session();
      EXPECT_TRUE(session.put("alpha", "one"));
      EXPECT_TRUE(session.put(nul_key, "nul"));
      EXPECT_TRUE(session.put("empty", ""));
      EXPECT_FALSE(session.put("alpha", "uno"));  // update, not insert
      EXPECT_EQ(session.get("alpha"), std::optional<std::string>("uno"));
      EXPECT_EQ(session.get(nul_key), std::optional<std::string>("nul"));
      EXPECT_EQ(session.get("empty"), std::optional<std::string>(""));
      EXPECT_FALSE(session.get("absent").has_value());
      EXPECT_TRUE(session.erase(nul_key));
      EXPECT_FALSE(session.erase(nul_key));
      EXPECT_FALSE(session.contains(nul_key));
      EXPECT_TRUE(session.contains("alpha"));
      session.reset();
      EXPECT_EQ(kv->size_unsafe(), 2u);
    }
  }
}

// Two-session churn over a small string keyspace for every scheme: the
// typed-key analogue of EveryCellConcurrentChurnSmoke.
TEST(KvStore, StringKeyedChurnSmokeAllSchemes) {
  const int iters = test::scaled_iters(600);
  constexpr std::uint64_t kRange = 32;
  for (SchemeId s : kAllSchemes) {
    for (StructureId d : kKvStructures) {
      SCOPED_TRACE(cell_name(s, d));
      auto kv = KvStore::make(s, d, small_kv_options(2));
      ASSERT_TRUE(kv.has_value());
      test::run_threads(2, [&](unsigned tid) {
        auto session = kv->session();
        Xoshiro256 rng(0xC0FFEE + tid);
        std::string value;
        char kb[24];
        for (int i = 0; i < iters; ++i) {
          std::snprintf(kb, sizeof(kb), "k%llu",
                        static_cast<unsigned long long>(rng.next_in(kRange)));
          const std::string key(kb);
          switch (rng.next_in(3)) {
            case 0: session.put(key, key); break;
            case 1: session.erase(key); break;
            default: {
              if (session.get(key, &value)) {
                EXPECT_EQ(value, key);
              }
              break;
            }
          }
        }
      });
      EXPECT_LE(kv->size_unsafe(), kRange);
      EXPECT_GE(kv->pending_nodes(), 0);
      (void)kv->restarts();
      (void)kv->recoveries();
    }
  }
}

}  // namespace
}  // namespace scot
