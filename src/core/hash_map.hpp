// Lock-free hash map: a fixed array of SCOT Harris lists.
//
// The paper (§2.3, §6.2) treats hash maps as "simply arrays of Harris' or
// Harris-Michael lists"; this adapter provides exactly that, giving the
// examples a realistic key-value workload on top of the SCOT list.  The
// bucket count is fixed at construction, faithful to the paper's setup.
// For a growable table use the serving layer's KvHashMap
// (src/kv/kv_hash_map.hpp): split-ordered buckets over one SCOT Harris
// list, where growing is one CAS on the bucket count and no node moves
// (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/harris_list.hpp"
#include "smr/smr.hpp"

namespace scot {

template <class Key, class Value, SmrDomain Smr,
          class Traits = HarrisListTraits, class Hash = std::hash<Key>,
          class Compare = std::less<Key>>
class HashMap {
 public:
  using List = HarrisList<Key, Value, Smr, Traits, Compare>;
  using Handle = typename Smr::Handle;

  HashMap(Smr& smr, std::size_t buckets, Hash hash = {}, Compare cmp = {})
      : hash_(hash) {
    buckets_.reserve(buckets);
    for (std::size_t i = 0; i < buckets; ++i)
      buckets_.push_back(std::make_unique<List>(smr, cmp));
  }

  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    return bucket(key).insert(h, key, value);
  }
  bool erase(Handle& h, const Key& key) { return bucket(key).erase(h, key); }
  bool contains(Handle& h, const Key& key) {
    return bucket(key).contains(h, key);
  }
  std::optional<Value> get(Handle& h, const Key& key) {
    return bucket(key).get(h, key);
  }

  std::size_t bucket_count() const { return buckets_.size(); }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b->size_unsafe();
    return n;
  }

 private:
  List& bucket(const Key& key) {
    // Fibonacci scrambling: std::hash for integers is the identity, which
    // would put arithmetic key sequences into sequential buckets.
    const std::uint64_t x = static_cast<std::uint64_t>(hash_(key));
    const std::uint64_t mixed = (x * 0x9e3779b97f4a7c15ULL) >> 17;
    return *buckets_[mixed % buckets_.size()];
  }

  std::vector<std::unique_ptr<List>> buckets_;
  [[no_unique_address]] Hash hash_;
};

}  // namespace scot
