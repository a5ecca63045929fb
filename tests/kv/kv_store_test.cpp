// scot::kv — semantics of the string-keyed resizable shard (KvHashMap)
// and the sharded KvStore facade over one SMR domain, across every
// registered scheme.  The hammer at the bottom is the concurrent
// growth-vs-op-vs-session-churn witness: writers keep a must-survive key
// set while churn threads update/erase a volatile range, session churners
// join and leave the store's domain, and the bucket count doubles
// repeatedly underneath all of them.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "kv/kv_hash_map.hpp"
#include "kv/kv_store.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::run_threads;
using test::scaled_iters;
using test::small_config;

std::string key_of(unsigned i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%08u", i);
  return buf;
}

std::string value_of(unsigned i, std::size_t len = 24) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v%u|", i);
  std::string v = buf;
  while (v.size() < len) v.push_back(static_cast<char>('a' + (i % 26)));
  return v;
}

// A one-shard store: the whole key set in one split-ordered table.
KvStoreOptions one_shard_options(std::size_t initial_buckets = 4) {
  KvStoreOptions o;
  o.smr = small_config(8);
  o.shards = 1;
  o.initial_buckets_per_shard = initial_buckets;
  return o;
}

TEST(KvHash, HashAvalanchesLowAndHighBits) {
  // Shard routing uses the top 16 bits; buckets use the low bits.  Nearby
  // keys must differ in both.
  const std::uint64_t a = kv_hash("user00000001");
  const std::uint64_t b = kv_hash("user00000002");
  EXPECT_NE(a, b);
  EXPECT_NE(a >> 48, b >> 48);
  EXPECT_NE(a & 0xffff, b & 0xffff);
  EXPECT_EQ(kv_hash("abc"), kv_hash(std::string("abc")));
}

// The split-order invariants the list relies on: at every bucket count n,
// a pair sorts after its own bucket's sentinel and before the next
// sentinel in split order, and a bucket's parent sorts before it (so a
// sentinel can always be linked from its parent, and an op can always
// fall back to the parent).
TEST(KvHash, SplitOrderKeysPlacePairsInsideTheirBucket) {
  Xoshiro256 rng(0x5eed);
  for (unsigned k = 1; k <= 20; ++k) {
    const std::uint64_t n = std::uint64_t{1} << k;
    const std::uint64_t step = std::uint64_t{1} << (64 - k);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t h = rng.next();
      const std::uint64_t b = h & (n - 1);
      const std::uint64_t own = kv_sentinel_key(b);
      const std::uint64_t pair = kv_pair_key(h);
      ASSERT_LT(own, pair) << "n=" << n << " h=" << h;
      // The next sentinel in split order among n buckets, if any.
      if (own + step != 0) {
        const std::uint64_t succ = own + step;
        ASSERT_LT(kv_reverse_bits(succ), n);
        ASSERT_EQ(kv_sentinel_key(kv_reverse_bits(succ)), succ);
        ASSERT_LT(pair, succ) << "n=" << n << " h=" << h;
      }
      for (int j = 0; j < 16; ++j) {
        const std::uint64_t other = kv_sentinel_key(rng.next_in(n));
        if (other > own) {
          ASSERT_LT(pair, other) << "n=" << n << " h=" << h;
        }
      }
      if (b != 0) {
        ASSERT_LT(kv_sentinel_key(b ^ std::bit_floor(b)), own) << "b=" << b;
      }
    }
  }
}

TEST(KvStore, EverySchemeRegistersTheKvCell) {
  for (const SchemeId scheme : kAllSchemes) {
    for (const StructureId structure : kKvStructures) {
      auto kv = KvStore::make(scheme, structure, one_shard_options());
      ASSERT_TRUE(kv.has_value()) << scheme_name(scheme);
      EXPECT_EQ(kv->scheme(), scheme);
      EXPECT_EQ(kv->structure(), structure);
      EXPECT_STREQ(kv->structure_name(), "KvHash");
    }
  }
  // A map structure is not a kv cell.
  EXPECT_FALSE(
      KvStore::make(SchemeId::kEBR, StructureId::kHList, one_shard_options())
          .has_value());
  // KvHash is name-resolvable but deliberately absent from the uint64 grid.
  EXPECT_EQ(structure_from_name("KvHash"), StructureId::kKvHash);
  for (const StructureId s : kAllStructures) EXPECT_NE(s, StructureId::kKvHash);
}

TEST(KvStore, StringSemanticsAllSchemes) {
  for (const SchemeId scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    auto kv = KvStore::make(scheme, StructureId::kKvHash, one_shard_options());
    ASSERT_TRUE(kv.has_value());
    auto s = kv->session();

    EXPECT_TRUE(s.put("alpha", "1"));
    EXPECT_TRUE(s.put("beta", "2"));
    EXPECT_FALSE(s.put("alpha", "one"));  // update, not insert
    EXPECT_EQ(s.get("alpha"), "one");
    EXPECT_EQ(s.get("beta"), "2");
    EXPECT_FALSE(s.get("gamma").has_value());
    EXPECT_TRUE(s.contains("beta"));
    EXPECT_TRUE(s.erase("beta"));
    EXPECT_FALSE(s.erase("beta"));
    EXPECT_FALSE(s.contains("beta"));

    // Empty values and binary keys (embedded NUL) are plain byte strings.
    EXPECT_TRUE(s.put("empty", ""));
    EXPECT_EQ(s.get("empty"), "");
    const std::string nul_key("k\0k", 3);
    EXPECT_TRUE(s.put(nul_key, "nul"));
    EXPECT_EQ(s.get(nul_key), "nul");
    EXPECT_FALSE(s.contains("k"));

    s.reset();
    EXPECT_EQ(kv->size_unsafe(), 3u);
  }
}

TEST(KvStore, OversizePairsAreRejectedAsNoOps) {
  auto kv = KvStore::make(SchemeId::kEBR, StructureId::kKvHash,
                          one_shard_options());
  ASSERT_TRUE(kv.has_value());
  auto s = kv->session();
  const std::string big(64 * 1024, 'x');
  EXPECT_FALSE(kv->put_ok("k", big));
  EXPECT_FALSE(kv->put_ok(big, "v"));
  EXPECT_TRUE(kv->put_ok("k", std::string(4096, 'x')));
  EXPECT_FALSE(s.put("k", big));
  EXPECT_FALSE(s.contains("k"));
  s.reset();
  EXPECT_EQ(kv->size_unsafe(), 0u);
}

TEST(KvStore, ResizeGrowsTheDirectoryAndKeepsEveryKey) {
  const unsigned kKeys = static_cast<unsigned>(scaled_iters(3000, 4));
  auto kv = KvStore::make(SchemeId::kEBR, StructureId::kKvHash,
                          one_shard_options(/*initial_buckets=*/2));
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->bucket_count(), 2u);
  {
    auto s = kv->session();
    for (unsigned i = 0; i < kKeys; ++i)
      ASSERT_TRUE(s.put(key_of(i), value_of(i)));
  }
  EXPECT_EQ(kv->size_unsafe(), kKeys);
  EXPECT_GT(kv->bucket_count(), 2u);
  EXPECT_GT(kv->migrated_buckets(), 0u);
  {
    auto s = kv->session();
    for (unsigned i = 0; i < kKeys; ++i) {
      ASSERT_EQ(s.get(key_of(i)), value_of(i)) << i;
    }
    // Erase the odd half, re-check both halves.
    for (unsigned i = 1; i < kKeys; i += 2) ASSERT_TRUE(s.erase(key_of(i)));
    for (unsigned i = 0; i < kKeys; ++i) {
      ASSERT_EQ(s.contains(key_of(i)), i % 2 == 0) << i;
    }
  }
  EXPECT_EQ(kv->size_unsafe(), (kKeys + 1) / 2);
}

TEST(KvStore, ShardCountsAgreeOnContent) {
  const unsigned kKeys = 512;
  for (const unsigned shards : {1u, 4u}) {
    KvStoreOptions o;
    o.smr = small_config(8);
    o.shards = shards;
    o.initial_buckets_per_shard = 4;
    auto store = KvStore::make(SchemeId::kIBR, StructureId::kKvHash, o);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->shard_count(), shards);
    auto s = store->session();
    for (unsigned i = 0; i < kKeys; ++i)
      ASSERT_TRUE(s.put(key_of(i), value_of(i)));
    for (unsigned i = 0; i < kKeys; i += 3) ASSERT_TRUE(s.erase(key_of(i)));
    for (unsigned i = 0; i < kKeys; ++i) {
      if (i % 3 == 0) {
        ASSERT_FALSE(s.contains(key_of(i))) << i;
      } else {
        ASSERT_EQ(s.get(key_of(i)), value_of(i)) << i;
      }
    }
    s.reset();
    EXPECT_EQ(store->size_unsafe(), kKeys - (kKeys + 2) / 3);
  }
}

// A store of N shards is one domain: a session is one handle (one join,
// however many shards), and the background reclaimer is one thread per
// store.
TEST(KvStore, ShardsShareOneDomain) {
  for (const bool bg : {false, true}) {
    SCOPED_TRACE(bg ? "background_reclaim" : "inline reclaim");
    KvStoreOptions o;
    o.smr = small_config(8);
    o.smr.track_stats = true;
    o.smr.background_reclaim = bg;
    o.shards = 8;
    o.initial_buckets_per_shard = 2;
    auto store = KvStore::make(SchemeId::kHP, StructureId::kKvHash, o);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->shard_count(), 8u);
    const unsigned reclaimers = bg ? 1u : 0u;
    EXPECT_EQ(store->active_handles(), reclaimers);
    for (unsigned round = 0; round < 3; ++round) {
      const std::uint64_t joins_before = store->stats().joins;
      auto s = store->session();
      EXPECT_EQ(store->active_handles(), 1u + reclaimers);
      const obs::StatsSnapshot during = store->stats();
      if (during.enabled) {
        EXPECT_EQ(during.joins - joins_before, 1u);
      }
      for (unsigned i = 0; i < 500; ++i) s.put(key_of(i), value_of(i));
      for (unsigned i = 0; i < 500; ++i) s.erase(key_of(i));
    }
    EXPECT_EQ(store->active_handles(), reclaimers);
    EXPECT_GT(store->stats().retired_total, 0u);
    EXPECT_EQ(store->size_unsafe(), 0u);
  }
}

// Erase against growth: checkers put+erase their own key and must never
// see it again, while writer threads keep the bucket count doubling and
// new sentinels linking into the list around the checkers' nodes.
TEST(KvStore, EraseStaysErasedDuringResizeStorm) {
  const int kCheckIters = scaled_iters(2000, 10);
  const unsigned kDriverKeys = static_cast<unsigned>(scaled_iters(6000, 16));
  KvStoreOptions o;
  o.smr = small_config(16);
  o.shards = 1;  // all traffic in one shard maximizes resize interference
  o.initial_buckets_per_shard = 2;
  auto store = KvStore::make(SchemeId::kEBR, StructureId::kKvHash, o);
  ASSERT_TRUE(store.has_value());

  std::atomic<bool> failed{false};
  std::mutex fail_mu;
  std::string fail_what;
  const auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lk(fail_mu);
    if (!failed.exchange(true)) fail_what = std::move(what);
  };
  run_threads(4, [&](unsigned t) {
    auto s = store->session();
    if (t < 2) {
      // Drivers: unique keys keep the load factor over the doubling
      // threshold so the table grows for the whole test.
      for (unsigned i = 0; i < kDriverKeys && !failed.load(); ++i)
        s.put(key_of(t * 1000000u + i), value_of(i));
    } else {
      for (int i = 0; i < kCheckIters && !failed.load(); ++i) {
        const std::string k = key_of(7000000u + t * 100000u +
                                     static_cast<unsigned>(i % 8));
        if (!s.put(k, "gone")) fail("checker put saw a live " + k);
        if (!s.erase(k)) fail("checker erase lost " + k);
        if (s.contains(k)) fail("erased key resurrected (contains): " + k);
        if (s.get(k).has_value()) fail("erased key resurrected (get): " + k);
      }
    }
  });
  ASSERT_FALSE(failed.load()) << fail_what;
  EXPECT_EQ(store->size_unsafe(), 2u * kDriverKeys);
}

// size_unsafe() against growth: one thread walks the list over and over
// while writers double the bucket count and link sentinels; every walk
// must terminate, and the quiesced count must be exact.
TEST(KvStore, DrainRacesRoundClaimsWithoutWedging) {
  const unsigned kDriverKeys = static_cast<unsigned>(scaled_iters(4000, 16));
  KvStoreOptions o;
  o.smr = small_config(16);
  o.shards = 1;
  o.initial_buckets_per_shard = 2;
  auto store = KvStore::make(SchemeId::kHP, StructureId::kKvHash, o);
  ASSERT_TRUE(store.has_value());

  std::atomic<int> writers_done{0};
  run_threads(4, [&](unsigned t) {
    if (t < 3) {
      auto s = store->session();
      for (unsigned i = 0; i < kDriverKeys; ++i)
        s.put(key_of(t * 1000000u + i), value_of(i));
      writers_done.fetch_add(1);
    } else {
      // Walker: every call must terminate while the list grows under it.
      do {
        store->size_unsafe();
      } while (writers_done.load() < 3);
    }
  });
  EXPECT_EQ(store->size_unsafe(), 3u * kDriverKeys);
  EXPECT_GT(store->bucket_count(), 2u);
}

// Lazy bucket linking under contention.  A single-threaded load ends just
// past a doubling, so most buckets of the final count have no sentinel
// yet; then every reader gets every key in the same order, so the readers
// race to claim each bucket and the losers start from the parent bucket.
TEST(KvStore, ConcurrentFirstTouchOfUnlinkedBuckets) {
  // 4 * 2^k + 1 keys: the last put doubles the table to 2^(k+1) buckets.
  const unsigned kKeys = 4u * static_cast<unsigned>(scaled_iters(2048, 8)) + 1;
  for (const SchemeId scheme : kAllSchemes) {
    SCOPED_TRACE(scheme_name(scheme));
    KvStoreOptions o;
    o.smr = small_config(8);
    o.shards = 1;
    o.initial_buckets_per_shard = 2;
    auto store = KvStore::make(scheme, StructureId::kKvHash, o);
    ASSERT_TRUE(store.has_value());
    {
      auto s = store->session();
      for (unsigned i = 0; i < kKeys; ++i)
        ASSERT_TRUE(s.put(key_of(i), value_of(i)));
    }
    const std::size_t linked_after_load = store->migrated_buckets();
    ASSERT_LT(linked_after_load + (kKeys - 1) / 8, store->bucket_count());

    std::atomic<bool> failed{false};
    std::mutex fail_mu;
    std::string fail_what;
    run_threads(4, [&](unsigned) {
      auto s = store->session();
      std::string v;
      for (unsigned i = 0; i < kKeys && !failed.load(); ++i) {
        if (!s.get(key_of(i), &v) || v != value_of(i)) {
          std::lock_guard<std::mutex> lk(fail_mu);
          if (!failed.exchange(true)) fail_what = "get " + key_of(i);
        }
      }
    });
    ASSERT_FALSE(failed.load()) << fail_what;
    EXPECT_EQ(store->size_unsafe(), kKeys);
    EXPECT_GT(store->migrated_buckets(), linked_after_load);
    EXPECT_LE(store->migrated_buckets(), store->bucket_count() - 2);
  }
}

// Concurrent growth vs. operations vs. session churn.  Two writer threads
// own disjoint must-survive ranges; two churn threads update/erase/reinsert
// a shared volatile range; one session-churn thread opens and closes
// short-lived sessions in a loop.  The shard starts at 2 buckets, so the
// bucket count doubles many times while all of this runs.
class KvHammerTest : public ::testing::TestWithParam<SchemeId> {};

TEST_P(KvHammerTest, ConcurrentResizeOpsAndSessionChurn) {
  const SchemeId scheme = GetParam();
  const unsigned kStablePerWriter =
      static_cast<unsigned>(scaled_iters(1500, 5));
  const unsigned kVolatile = 256;
  const int kChurnIters = scaled_iters(4000, 8);

  KvStoreOptions o;
  o.smr = small_config(16);
  o.shards = 2;
  o.initial_buckets_per_shard = 2;
  auto store = KvStore::make(scheme, StructureId::kKvHash, o);
  ASSERT_TRUE(store.has_value());

  // First failure wins; records which invariant broke and on which key so a
  // one-in-many-runs race leaves something actionable behind.
  std::atomic<bool> failed{false};
  std::mutex fail_mu;
  std::string fail_what;
  const auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lk(fail_mu);
    if (!failed.exchange(true)) fail_what = std::move(what);
  };
  run_threads(5, [&](unsigned t) {
    if (t < 2) {
      // Writers: insert the must-survive set, then verify their own range.
      auto s = store->session();
      for (unsigned i = 0; i < kStablePerWriter; ++i) {
        const unsigned id = t * 1000000u + i;
        if (!s.put(key_of(id), value_of(id)))
          fail("fresh writer put not an insert: " + key_of(id));
      }
      for (unsigned i = 0; i < kStablePerWriter; ++i) {
        const unsigned id = t * 1000000u + i;
        const auto v = s.get(key_of(id));
        if (v != value_of(id))
          fail("writer read-back of " + key_of(id) + " got " +
               (v.has_value() ? *v : std::string("<absent>")));
      }
    } else if (t < 4) {
      // Churners: update/erase/reinsert the shared volatile range; every
      // observed value must be one this test ever wrote.
      auto s = store->session();
      Xoshiro256 rng(0x9e3779b9u * (t + 1));
      for (int i = 0; i < kChurnIters; ++i) {
        const unsigned id =
            5000000u + static_cast<unsigned>(rng.next_in(kVolatile));
        switch (rng.next_in(4)) {
          case 0:
            s.put(key_of(id), value_of(id));
            break;
          case 1:
            s.put(key_of(id), value_of(id + 1));  // distinct update payload
            break;
          case 2:
            s.erase(key_of(id));
            break;
          default: {
            const auto v = s.get(key_of(id));
            if (v.has_value() && *v != value_of(id) && *v != value_of(id + 1))
              fail("churner read of " + key_of(id) + " got " + *v);
            break;
          }
        }
      }
    } else {
      // Session churn: join/leave the shard domains while everyone else
      // runs, doing a little work per short-lived session.
      for (int i = 0; i < scaled_iters(300, 6); ++i) {
        auto s = store->session();
        const unsigned id = 6000000u + static_cast<unsigned>(i % 64);
        s.put(key_of(id), value_of(id));
        s.contains(key_of(id));
        s.erase(key_of(id));
      }
    }
  });
  ASSERT_FALSE(failed.load()) << fail_what;

  // Quiesced: every must-survive key is present with its exact value, and
  // the volatile range is consistent.
  {
    auto s = store->session();
    for (unsigned t = 0; t < 2; ++t) {
      for (unsigned i = 0; i < kStablePerWriter; ++i) {
        const unsigned id = t * 1000000u + i;
        ASSERT_EQ(s.get(key_of(id)), value_of(id)) << id;
      }
    }
    for (unsigned i = 0; i < kVolatile; ++i) {
      const auto v = s.get(key_of(5000000u + i));
      if (v.has_value()) {
        ASSERT_TRUE(*v == value_of(5000000u + i) ||
                    *v == value_of(5000000u + i + 1));
      }
    }
  }
  const std::size_t size = store->size_unsafe();
  EXPECT_GE(size, 2u * kStablePerWriter);
  EXPECT_LE(size, 2u * kStablePerWriter + kVolatile + 64);
  EXPECT_GT(store->bucket_count(), 2u * o.shards);

  // Bounded pending garbage: with all sessions closed the domains may hold
  // deferred batches, but nothing unbounded relative to the churn volume.
  const std::int64_t pending = store->pending_nodes();
  EXPECT_GE(pending, 0);
  EXPECT_LT(pending, 200000);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, KvHammerTest,
                         ::testing::ValuesIn(std::vector<SchemeId>(
                             std::begin(kAllSchemes), std::end(kAllSchemes))),
                         [](const ::testing::TestParamInfo<SchemeId>& info) {
                           return scheme_name(info.param);
                         });

}  // namespace
}  // namespace scot
