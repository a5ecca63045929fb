// scot::KvStore — the serving-layer facade: N split-ordered KvHashMap
// shards over ONE SMR domain, on the shared facade skeleton
// (core/any_facade.hpp, DESIGN.md §10).
//
// Routing.  Keys hash once (kv_hash); the TOP 16 bits pick the shard and
// the LOW bits pick the bucket inside the shard, so shard choice and
// bucket choice never correlate even for adversarial key sets.  The hash
// is handed to the shard's op, which never recomputes it.  Each shard keeps
// its own bucket directory and size counter: no operation touches another
// shard's table, and growing one shard never touches another.
//
// One domain.  The shards share the store's node pool, handle registry,
// era clock and — with KvStoreOptions.smr.background_reclaim — its one
// reclaimer thread.  So pending garbage is bounded per store, not per
// shard, and the domain observers (stats(), pending_nodes(), restarts(),
// recoveries(), active_handles()) come straight from Facade.
//
// Threading.  Mirrors AnyMap: each worker opens store.session(), which
// joins the domain's handle registry once; a session is {impl*, handle*},
// so an operation is one virtual call whatever the shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/any_facade.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct KvStoreOptions {
  SmrConfig smr;  // the store's one domain
  unsigned shards = 8;
  std::size_t initial_buckets_per_shard = 16;
  std::size_t max_buckets_per_shard = std::size_t{1} << 20;
  unsigned max_load_factor = 4;
};

namespace detail {

// The kv concept's erased op surface.  One concrete TypedKvStore<Smr> per
// scheme lives in src/kv/any_kv.cpp.
class KvStoreImpl : public FacadeImpl {
 public:
  // true = inserted a new key, false = updated an existing one.  Keys or
  // values beyond the pooled-cell ceiling (put_ok() == false) are rejected
  // as a no-op returning false; callers that care probe put_ok() first.
  virtual bool put_with(void* h, std::string_view key,
                        std::string_view value) = 0;
  virtual bool erase_with(void* h, std::string_view key) = 0;
  virtual bool contains_with(void* h, std::string_view key) = 0;
  virtual bool get_with(void* h, std::string_view key, std::string* out) = 0;
  virtual bool put_ok(std::string_view key, std::string_view value) const = 0;
  // Folds over the shard maps.
  virtual std::size_t size_unsafe() const = 0;
  virtual std::size_t bucket_count() const = 0;
  virtual std::uint64_t migrated_buckets() const = 0;
  virtual unsigned shard_count() const = 0;
};

}  // namespace detail

class KvStore : public detail::Facade<detail::KvStoreImpl> {
 public:
  // Builds one (scheme, structure) store of options.shards shards (0 means
  // 1).  Returns nullopt for a structure outside the kv concept.  Defined
  // in src/kv/any_kv.cpp, the only TU that pays for the scheme cross
  // product.
  static std::optional<KvStore> make(SchemeId scheme, StructureId structure,
                                     const KvStoreOptions& options = {});

  // One thread's membership in the store's reclamation domain; see
  // detail::ErasedSession for the contract (move-only, one per thread).
  class Session : public detail::ErasedSession<detail::KvStoreImpl> {
   public:
    Session() = default;

    // Upsert; returns true when the key was newly inserted (false for an
    // update — or for an oversize pair, see KvStore::put_ok).
    bool put(std::string_view key, std::string_view value) {
      return impl_->put_with(h_, key, value);
    }
    bool erase(std::string_view key) { return impl_->erase_with(h_, key); }
    bool contains(std::string_view key) {
      return impl_->contains_with(h_, key);
    }
    bool get(std::string_view key, std::string* out) {
      return impl_->get_with(h_, key, out);
    }
    std::optional<std::string> get(std::string_view key) {
      std::string out;
      if (!impl_->get_with(h_, key, &out)) return std::nullopt;
      return out;
    }

   private:
    friend class KvStore;
    explicit Session(detail::KvStoreImpl* impl) : ErasedSession(impl) {}
  };

  // Opens a session for the calling thread.  The store must outlive it.
  Session session() { return Session(impl_.get()); }

  // True when key and value fit the pooled-cell ceiling (~4KB each).
  bool put_ok(std::string_view key, std::string_view value) const {
    return impl_->put_ok(key, value);
  }

  // Walks every shard's list; call only with no operation in flight.
  std::size_t size_unsafe() const { return impl_->size_unsafe(); }
  // Resize observability, summed over the shards.
  std::size_t bucket_count() const { return impl_->bucket_count(); }
  std::uint64_t migrated_buckets() const { return impl_->migrated_buckets(); }
  unsigned shard_count() const { return impl_->shard_count(); }

 private:
  KvStore(SchemeId scheme, StructureId structure,
          std::unique_ptr<detail::KvStoreImpl> impl)
      : Facade(scheme, structure, std::move(impl)) {}
};

}  // namespace scot
