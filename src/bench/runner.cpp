// Facade-driven run_case: builds the (scheme, structure) cell through its
// concept's type-erased facade — scot::AnyMap, scot::AnyContainer or
// scot::KvStore, picked by container_kind(cfg.structure) — and runs it
// through the one measured loop (runner_impl.hpp) with that concept's
// driver.
#include "bench/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench/runner_impl.hpp"
#include "core/any_container.hpp"
#include "core/any_map.hpp"
#include "kv/kv_store.hpp"

namespace scot::bench {

namespace {

// Unwraps a facade make()'s result.  A structure missing from its concept's
// make() switch would otherwise emit a fake 0.0-Mops cell that poisons JSON
// reports and baselines, so a missing cell fails loudly instead.
template <class Facade>
Facade registered(std::optional<Facade> facade, const CaseConfig& cfg,
                  const char* make_fn) {
  if (!facade) {
    std::fprintf(stderr, "run_case: no cell for %s/%s — check %s\n",
                 scheme_name(cfg.scheme), structure_name(cfg.structure),
                 make_fn);
    std::exit(2);
  }
  return std::move(*facade);
}

CaseResult run_one(const CaseConfig& cfg, std::uint64_t run_seed) {
  switch (container_kind(cfg.structure)) {
    case ContainerKind::kMap: {
      AnyMapOptions options;
      options.smr = detail::smr_config_for(cfg);
      options.hash_buckets = detail::bucket_count_for(cfg);
      AnyMap map = registered(AnyMap::make(cfg.scheme, cfg.structure, options),
                              cfg, "AnyMap::make() in src/core/any_map.cpp");
      detail::MapDriver<AnyMap> d{map, cfg};
      return detail::run_measured(d, cfg, run_seed);
    }
    case ContainerKind::kQueue:
    case ContainerKind::kStack:
    case ContainerKind::kDeque: {
      AnyContainerOptions options;
      options.smr = detail::smr_config_for(cfg);
      AnyContainer c = registered(
          AnyContainer::make(cfg.scheme, cfg.structure, options), cfg,
          "AnyContainer::make() in src/core/any_container.cpp");
      detail::ContainerDriver<AnyContainer> d{c, cfg};
      return detail::run_measured(d, cfg, run_seed);
    }
    case ContainerKind::kKv: {
      KvStoreOptions options;
      options.smr = detail::smr_config_for(cfg);
      options.shards = cfg.kv_shards == 0 ? 1 : cfg.kv_shards;
      // Start shards one doubling below their loaded size so every run
      // grows each table at least once and links the new buckets.
      const std::uint64_t per_shard =
          std::max<std::uint64_t>(1, cfg.key_range / options.shards);
      std::size_t buckets = 16;
      while (buckets < per_shard / 8) buckets *= 2;
      options.initial_buckets_per_shard = buckets;
      KvStore store = registered(
          KvStore::make(cfg.scheme, cfg.structure, options), cfg,
          "KvStore::make() in src/kv/any_kv.cpp");
      detail::KvDriver<KvStore> d{store, cfg};
      return detail::run_measured(d, cfg, run_seed);
    }
    case ContainerKind::kNone:
      break;
  }
  return {};
}

}  // namespace

CaseResult run_case(const CaseConfig& cfg) {
  if (cfg.structure == StructureId::kNone)
    return {};  // micro-SMR cells are never run through the harness
  return detail::median_of_runs(
      cfg, [&](std::uint64_t seed) { return run_one(cfg, seed); });
}

}  // namespace scot::bench
