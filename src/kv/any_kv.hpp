// scot::AnyKv — the string-keyed sibling of scot::AnyMap: a type-erased
// facade over the scheme × kv-structure cross product, on the shared facade
// skeleton (core/any_facade.hpp).  One AnyKv is one KvStore shard; the
// sharded facade lives in kv/kv_store.hpp.
//
// As with AnyMap, sessions are the only way in.  Each worker thread opens
// `kv.session()` (joins the shard domain's handle registry) and operates
// through it with string_view keys and values; the value bytes are copied
// into pooled blob cells on put and copied out on get.
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

struct AnyKvOptions {
  SmrConfig smr;  // the shard domain's configuration (inherited per shard)
  std::size_t initial_buckets = 16;
  std::size_t max_buckets = std::size_t{1} << 20;
  unsigned max_load_factor = 4;
};

namespace detail {

// The kv concept's erased op surface.  One concrete TypedAnyKv<Smr> per
// cell lives in src/kv/any_kv.cpp.
class AnyKvImpl : public FacadeImpl {
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
  virtual std::size_t size_unsafe() = 0;
  // Resize observability (kv_store_test asserts on these; perfbench's
  // traced kv run reads them).
  virtual std::size_t bucket_count() const = 0;
  virtual std::uint64_t migrated_buckets() const = 0;
};

}  // namespace detail

class AnyKv : public detail::Facade<detail::AnyKvImpl> {
 public:
  // Builds the (scheme, structure) shard cell.  Returns nullopt for a
  // structure outside the kv concept.  Defined in src/kv/any_kv.cpp, the
  // only TU that pays for the scheme cross product.
  static std::optional<AnyKv> make(SchemeId scheme, StructureId structure,
                                   const AnyKvOptions& options = {});

  // One thread's membership in the shard's reclamation domain; see
  // detail::ErasedSession for the contract (move-only, one per thread).
  class Session : public detail::ErasedSession<detail::AnyKvImpl> {
   public:
    Session() = default;

    // Upsert; returns true when the key was newly inserted (false for an
    // update — or for an oversize pair, see AnyKv::put_ok).
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
    friend class AnyKv;
    explicit Session(detail::AnyKvImpl* impl) : ErasedSession(impl) {}
  };

  // Opens a session for the calling thread.  The AnyKv must outlive it.
  Session session() { return Session(impl_.get()); }

  // True when key and value fit the pooled-cell ceiling (~4KB each).
  bool put_ok(std::string_view key, std::string_view value) const {
    return impl_->put_ok(key, value);
  }

  // Walks the shard's list; call only with no operation in flight (tests).
  std::size_t size_unsafe() { return impl_->size_unsafe(); }
  std::size_t bucket_count() const { return impl_->bucket_count(); }
  std::uint64_t migrated_buckets() const { return impl_->migrated_buckets(); }

 private:
  AnyKv(SchemeId scheme, StructureId structure,
        std::unique_ptr<detail::AnyKvImpl> impl)
      : Facade(scheme, structure, std::move(impl)) {}
};

}  // namespace scot
