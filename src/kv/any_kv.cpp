// The one translation unit that instantiates the scheme × kv-structure
// cross product behind KvStore::make() — the string-keyed sibling of
// src/core/any_map.cpp.  A store cell is one Smr domain and N KvHashMap
// shards over it.
#include <memory>
#include <optional>
#include <utility>

#include "kv/kv_hash_map.hpp"
#include "kv/kv_store.hpp"
#include "smr/smr.hpp"

namespace scot {
namespace {

template <class Smr>
class TypedKvStore final
    : public detail::DomainImpl<Smr, detail::KvStoreImpl> {
  using Base = detail::DomainImpl<Smr, detail::KvStoreImpl>;
  using Base::handle;
  using Map = KvHashMap<Smr>;

 public:
  explicit TypedKvStore(const KvStoreOptions& options)
      : Base(options.smr),
        n_(options.shards == 0 ? 1 : options.shards),
        shards_(new std::optional<Map>[n_]) {
    const typename Map::Options map_options{options.initial_buckets_per_shard,
                                            options.max_buckets_per_shard,
                                            options.max_load_factor};
    for (unsigned i = 0; i < n_; ++i)
      shards_[i].emplace(this->smr_, map_options);
  }

  bool put_with(void* h, std::string_view key,
                std::string_view value) override {
    const std::uint64_t hash = kv_hash(key);
    return shard(hash).put(handle(h), hash, key, value) == KvPut::kInserted;
  }
  bool erase_with(void* h, std::string_view key) override {
    const std::uint64_t hash = kv_hash(key);
    return shard(hash).erase(handle(h), hash, key);
  }
  bool contains_with(void* h, std::string_view key) override {
    const std::uint64_t hash = kv_hash(key);
    return shard(hash).contains(handle(h), hash, key);
  }
  bool get_with(void* h, std::string_view key, std::string* out) override {
    const std::uint64_t hash = kv_hash(key);
    return shard(hash).get(handle(h), hash, key, out);
  }
  bool put_ok(std::string_view key, std::string_view value) const override {
    return key.size() <= Map::max_key_bytes() &&
           value.size() <= Map::max_value_bytes();
  }

  std::size_t size_unsafe() const override {
    return fold([](const Map& m) { return m.size_unsafe(); });
  }
  std::size_t bucket_count() const override {
    return fold([](const Map& m) { return m.bucket_count(); });
  }
  std::uint64_t migrated_buckets() const override {
    return fold([](const Map& m) { return m.migrated_buckets(); });
  }
  unsigned shard_count() const override { return n_; }

 private:
  Map& shard(std::uint64_t hash) {
    return *shards_[static_cast<std::size_t>(hash >> 48) % n_];
  }
  template <class F>
  std::uint64_t fold(F f) const {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < n_; ++i) n += f(*shards_[i]);
    return n;
  }

  // Members are destroyed before the domain base, so every shard's
  // teardown still frees through a live domain.
  const unsigned n_;
  std::unique_ptr<std::optional<Map>[]> shards_;
};

}  // namespace

std::optional<KvStore> KvStore::make(SchemeId scheme, StructureId structure,
                                     const KvStoreOptions& options) {
  auto impl = with_scheme(
      scheme, [&]<class Smr>() -> std::unique_ptr<detail::KvStoreImpl> {
        switch (structure) {
          case StructureId::kKvHash:
            return std::make_unique<TypedKvStore<Smr>>(options);
          default:
            return nullptr;  // not a kv structure
        }
      });
  if (impl == nullptr) return std::nullopt;
  return KvStore(scheme, structure, std::move(impl));
}

}  // namespace scot
