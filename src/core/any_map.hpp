// scot::AnyMap — the type-erased facade over the scheme × structure cross
// product, built on the shared facade skeleton (core/any_facade.hpp).
//
// AnyMap lets callers pick the reclamation scheme and the data structure as
// *runtime values* — the capability the per-scheme bench translation units
// used to fake with 7 copies of the same template instantiation.  Virtual
// dispatch sits only at operation granularity (one indirect call per
// insert/erase/contains/get); inside an operation the fully typed traversal
// runs, protect() included, so the PR 3 asymmetric-fence fast path is
// untouched.
//
// Threading contract.  Operations go through `AnyMap::Session`: each worker
// thread opens a session (`map.session()`), which joins the underlying
// domain's dynamic handle registry, and operates through it — no tid, no
// fixed thread cap, threads may come and go for the life of the map.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/any_facade.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct AnyMapOptions {
  SmrConfig smr;                 // domain configuration (max_threads, ...)
  std::size_t hash_buckets = 0;  // HashMap cells only; 0 = 64 buckets
};

namespace detail {

// The map concept's erased op surface.  One concrete TypedAnyMap<Smr, DS>
// per cell lives in src/core/any_map.cpp.
class AnyMapImpl : public FacadeImpl {
 public:
  virtual bool insert_with(void* h, std::uint64_t key, std::uint64_t value) = 0;
  virtual bool erase_with(void* h, std::uint64_t key) = 0;
  virtual bool contains_with(void* h, std::uint64_t key) = 0;
  virtual std::optional<std::uint64_t> get_with(void* h, std::uint64_t key) = 0;
  virtual std::size_t size_unsafe() const = 0;
};

}  // namespace detail

class AnyMap : public detail::Facade<detail::AnyMapImpl> {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  // Builds the (scheme, structure) cell.  Returns nullopt for a structure
  // outside the map concept (e.g. StructureId::kNone).  Defined in
  // src/core/any_map.cpp, the only TU that pays for the cross product's
  // template instantiations.
  static std::optional<AnyMap> make(SchemeId scheme, StructureId structure,
                                    const AnyMapOptions& options = {});

  // One thread's membership in the map's reclamation domain (see
  // detail::ErasedSession for the contract):
  //
  //   auto s = map.session();
  //   s.insert(k, v);  s.contains(k);  ...
  class Session : public detail::ErasedSession<detail::AnyMapImpl> {
   public:
    Session() = default;

    bool insert(Key key, Value value = {}) {
      return impl_->insert_with(h_, key, value);
    }
    bool erase(Key key) { return impl_->erase_with(h_, key); }
    bool contains(Key key) { return impl_->contains_with(h_, key); }
    std::optional<Value> get(Key key) { return impl_->get_with(h_, key); }

   private:
    friend class AnyMap;
    explicit Session(detail::AnyMapImpl* impl) : ErasedSession(impl) {}
  };

  // Opens a session for the calling thread.  The map must outlive it.
  Session session() { return Session(impl_.get()); }

  // Single-threaded full iteration over the structure (tests/teardown only).
  std::size_t size_unsafe() const { return impl_->size_unsafe(); }

 private:
  AnyMap(SchemeId scheme, StructureId structure,
         std::unique_ptr<detail::AnyMapImpl> impl)
      : Facade(scheme, structure, std::move(impl)) {}
};

}  // namespace scot
