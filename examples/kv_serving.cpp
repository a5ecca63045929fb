// kv_serving: the serving layer in one page — a sharded, resizable,
// string-keyed scot::KvStore (src/kv/, DESIGN.md §10) serving a small
// read-mostly workload from a few threads while the shards grow
// underneath it.
//
//   ./examples/kv_serving            # defaults: IBR, 4 shards
//   ./examples/kv_serving HP 8
//
// Each worker opens one store.session() (joining the store's one SMR
// domain, which every shard shares) and then routes by key hash: top 16
// bits pick the shard, the rest pick the bucket.  The stores start deliberately tiny so each shard's
// table doubles several times while the workers run; a doubling is one
// CAS on the bucket count, and new buckets link their sentinels into the
// shard's split-ordered list on first use.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "scot.hpp"

int main(int argc, char** argv) {
  using namespace scot;

  SchemeId scheme = SchemeId::kIBR;
  unsigned shards = 4;
  if (argc > 1) {
    const auto s = scheme_from_name(argv[1]);
    if (!s) {
      std::fprintf(stderr, "unknown scheme '%s' (try NR EBR HP HPopt HE IBR "
                   "HLN)\n", argv[1]);
      return 2;
    }
    scheme = *s;
  }
  if (argc > 2) shards = static_cast<unsigned>(std::atoi(argv[2]));
  if (shards == 0) shards = 1;

  KvStoreOptions options;
  options.smr.max_threads = 8;
  options.shards = shards;
  options.initial_buckets_per_shard = 4;  // tiny on purpose: force resizes
  auto store = KvStore::make(scheme, StructureId::kKvHash, options);
  if (!store) {
    std::fprintf(stderr, "no registered kv cell for %s (link scot_kv)\n",
                 scheme_name(scheme));
    return 2;
  }

  constexpr unsigned kThreads = 4;
  constexpr int kUsers = 4000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = store->session();
      std::string value;
      for (int i = static_cast<int>(t); i < kUsers; i += kThreads) {
        const std::string key = "user" + std::to_string(i);
        session.put(key, "profile:" + std::to_string(i));    // load
        session.get(key, &value);                            // read back
        if (i % 10 == 0) session.put(key, value + "!");      // update
        if (i % 7 == 0) session.erase(key);                  // churn
      }
    });
  }
  for (auto& w : workers) w.join();

  std::printf("scheme=%s shards=%u\n", scheme_name(scheme),
              store->shard_count());
  std::printf("entries=%zu buckets=%zu (started at %u x %zu)\n",
              store->size_unsafe(), store->bucket_count(), shards,
              options.initial_buckets_per_shard);
  std::printf("migrated_buckets=%llu pending_nodes=%lld\n",
              static_cast<unsigned long long>(store->migrated_buckets()),
              static_cast<long long>(store->pending_nodes()));

  auto session = store->session();
  const auto hit = session.get("user1");  // 1 % 7 != 0, still present
  std::printf("get(\"user1\") -> %s\n",
              hit ? hit->c_str() : "(absent)");
  return 0;
}
