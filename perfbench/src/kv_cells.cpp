// kv-serve cells: a KvStore of 8 KvHash shards starting at 16 buckets per
// shard, loaded with every key, then a YCSB-B mix (95% get, 5% update).
#include <cstring>
#include <string>
#include <string_view>

#include "cell.hpp"
#include "kv/kv_store.hpp"

namespace perfbench {

namespace {

// 16-byte keys ("user" + 12 zero-padded digits) and 128-byte values whose
// first 16 bytes repeat the key, so a get can check that it returned its
// own key's value.
constexpr std::size_t kKeyBytes = 16;
constexpr std::size_t kValueBytes = 128;

// Key id -> 16-byte key, "user" + 12 zero-padded digits, built once per run
// outside every timed region.
class KeyTable {
 public:
  explicit KeyTable(std::uint64_t n) : bytes_(n * kKeyBytes) {
    for (std::uint64_t id = 0; id < n; ++id) {
      char* k = bytes_.data() + id * kKeyBytes;
      std::memcpy(k, "user", 4);
      std::uint64_t v = id;
      for (std::size_t i = kKeyBytes; i > 4; --i, v /= 10)
        k[i - 1] = static_cast<char>('0' + v % 10);
    }
  }
  std::string_view key(std::uint64_t id) const {
    return {bytes_.data() + id * kKeyBytes, kKeyBytes};
  }

 private:
  std::vector<char> bytes_;
};

class KvTarget {
 public:
  using Session = scot::KvStore::Session;

  // Values are the key followed by the writer's put count and filler, so
  // a get checks its result against the key it asked for.
  struct WorkerState {
    std::string value;
    std::string out;
    std::uint64_t puts = 0;
  };

  KvTarget(SchemeId scheme, const scot::SmrConfig& smr, const KeyTable& keys)
      : keys_(keys), store_(make_store(scheme, smr)) {}

  Session session() { return store_.session(); }
  WorkerState worker_state(unsigned) {
    WorkerState sc;
    sc.value.assign(kValueBytes, 'v');
    sc.out.reserve(kValueBytes);
    return sc;
  }
  bool load(Session& s, WorkerState& sc, std::uint64_t id) {
    return s.put(keys_.key(id), stamp(sc, id));
  }
  Outcome apply(Session& s, WorkerState& sc, Op op, std::uint64_t id) {
    const std::string_view key = keys_.key(id);
    switch (op) {
      case Op::kRead:
        // Every key was loaded and none is erased: a get must hit and
        // return its own key's value.
        if (!s.get(key, &sc.out)) return Outcome::kFailed;
        return sc.out.size() == kValueBytes &&
                       std::memcmp(sc.out.data(), key.data(), kKeyBytes) == 0
                   ? Outcome::kHit
                   : Outcome::kFailed;
      case Op::kInsert:
        // YCSB update: put() returning "inserted" means the key was lost.
        return s.put(key, stamp(sc, id)) ? Outcome::kFailed : Outcome::kHit;
      case Op::kErase: break;  // kv-serve's mix has no erases
    }
    return Outcome::kFailed;
  }

  std::size_t size() { return store_.size_unsafe(); }
  std::int64_t pending() const { return store_.pending_nodes(); }
  scot::obs::StatsSnapshot stats() const { return store_.stats(); }
  std::uint64_t restarts() const { return store_.restarts(); }
  std::uint64_t recoveries() const { return store_.recoveries(); }
  std::uint64_t migrated_buckets() const { return store_.migrated_buckets(); }

 private:
  static scot::KvStore make_store(SchemeId scheme,
                                  const scot::SmrConfig& smr) {
    scot::KvStoreOptions o;
    o.smr = smr;
    o.shards = 8;
    o.initial_buckets_per_shard = 16;
    std::optional<scot::KvStore> store =
        scot::KvStore::make(scheme, scot::StructureId::kKvHash, o);
    if (!store) throw std::runtime_error("perfbench: no KvHash cell");
    return std::move(*store);
  }

  std::string_view stamp(WorkerState& sc, std::uint64_t id) const {
    std::memcpy(sc.value.data(), keys_.key(id).data(), kKeyBytes);
    std::uint64_t count = ++sc.puts;
    for (std::size_t i = 0; i < 16; ++i, count >>= 4)
      sc.value[kKeyBytes + 15 - i] = "0123456789abcdef"[count & 15];
    return sc.value;
  }

  const KeyTable& keys_;
  scot::KvStore store_;
};

}  // namespace

CellResult run_kv_cell(const CellContext& ctx, const CellPlan& plan) {
  static const KeyTable keys(ctx.spec->key_range);
  return run_cell<KvTarget>(ctx, plan, [&] {
    return std::make_unique<KvTarget>(plan.scheme, ctx.smr, keys);
  });
}

}  // namespace perfbench
