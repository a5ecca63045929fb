// bench_kv: YCSB-shaped serving workloads over the scot::KvStore subsystem
// (src/kv/, DESIGN.md §10) — string keys, inline value blobs, sharded
// resizable hash maps, every SMR scheme.
//
// Grid: workload preset (YCSB A/B/C; --preset narrows to one) × shard
// count ({1, 8}; --shards narrows to one) × scheme, rows = thread counts.
// Every cell is a run_case() of StructureId::kKvHash, which runs the kv
// driver of the harness's one measured loop, and records a
// schema-compatible scot-bench cell (bench tag "kv"; cell keys carry the
// |vs/|kl/|sh suffixes so integer-keyed baselines diff clean).
//
// Serving shape defaults: zipfian key choice (YCSB's default; --dist
// uniform overrides), 16-byte keys ("user" + zero-padded id; --key-len),
// 128-byte values (--value-size).  Prefill covers the FULL key range.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv, "kv");
  // Serving-shape defaults for the flags the user did not give.
  BenchFlags& flags = fig_session().flags;
  if (!flags.dist) flags.dist = KeyDist::kZipfian;
  if (flags.key_len == 0) flags.key_len = 16;
  if (flags.value_size == 0) flags.value_size = 128;

  std::vector<std::pair<const char*, WorkloadMix>> presets;
  for (const char* name : {"ycsb-a", "ycsb-b", "ycsb-c"}) {
    const WorkloadMix mix = *preset_from_name(name);
    if (!flags.preset || *flags.preset == mix) presets.emplace_back(name, mix);
  }
  // --preset named a non-YCSB mix (e.g. "mixed"): run it as a custom
  // serving grid rather than rejecting a documented flag.
  if (presets.empty()) presets.emplace_back("custom", *flags.preset);
  const std::vector<unsigned> shard_counts =
      flags.kv_shards != 0 ? std::vector<unsigned>{flags.kv_shards}
                           : std::vector<unsigned>{1, 8};

  for (const auto& [name, mix] : presets) {
    for (unsigned shards : shard_counts) {
      // The shard count reaches every cell (CaseConfig::kv_shards) through
      // the session flags, like --shards itself.
      flags.kv_shards = shards;
      const std::string title = std::string("kv: ") + name + ", " +
                                std::to_string(shards) +
                                (shards == 1 ? " shard" : " shards");
      GridSpec spec{title.c_str(), StructureId::kKvHash, 4096};
      spec.read_pct = mix.read_pct;
      spec.insert_pct = mix.insert_pct;
      spec.delete_pct = mix.delete_pct;
      run_grid(spec, 200);
    }
  }
  return fig_finish();
}
