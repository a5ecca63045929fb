// The skeleton every type-erased facade shares (scot::AnyMap,
// scot::KvStore, scot::AnyContainer): the domain-side implementation base,
// the erased session and the facade shell.  A concept adds only its op
// surface — the virtuals on its Impl interface, the forwarding calls on its
// Session, and the typed cell (one domain plus its structure or, for
// KvStore, its shard maps) in its one translation unit.
//
// Virtual dispatch sits at operation granularity: a session is
// {impl*, handle*}, so an operation is one indirect call, and inside it the
// fully typed operation runs, protect() fast path included.
//
// Like core/registry.hpp this header includes no domain or structure
// headers; DomainImpl is a template instantiated only in the facade TUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/registry.hpp"
#include "obs/stats.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot::detail {

// Session membership and the domain observers, common to every concept's
// erased interface (AnyMapImpl, KvStoreImpl, AnyContainerImpl derive from it
// and add their ops).  A joined handle crosses the erased boundary as an
// opaque pointer the session holds.
class FacadeImpl {
 public:
  virtual ~FacadeImpl() = default;
  virtual void* join_handle() = 0;
  virtual void leave_handle(void* h) = 0;
  virtual std::int64_t pending_nodes() const = 0;
  virtual std::uint64_t restarts() const = 0;
  virtual std::uint64_t recoveries() const = 0;
  virtual unsigned active_handles() const = 0;
  virtual std::size_t total_handle_records() const = 0;
  virtual obs::StatsSnapshot stats() const = 0;
};

// Implements FacadeImpl once over an owned `Smr` domain.  A concept's typed
// cell derives from DomainImpl<Smr, ConceptImpl>, declares its structure as
// a member (members are destroyed before bases, so the structure's
// teardown still deallocates through a live domain) and recovers the typed
// handle with handle(h).
template <class Smr, class Interface>
class DomainImpl : public Interface {
 public:
  void* join_handle() override { return &smr_.join(); }
  void leave_handle(void* h) override { smr_.leave(handle(h)); }
  std::int64_t pending_nodes() const override { return smr_.pending_nodes(); }
  std::uint64_t restarts() const override { return smr_.restarts(); }
  std::uint64_t recoveries() const override { return smr_.recoveries(); }
  unsigned active_handles() const override { return smr_.active_handles(); }
  std::size_t total_handle_records() const override {
    return smr_.total_handle_records();
  }
  obs::StatsSnapshot stats() const override { return smr_.stats(); }

 protected:
  using Handle = typename Smr::Handle;

  explicit DomainImpl(const SmrConfig& config) : smr_(config) {}
  static Handle& handle(void* h) { return *static_cast<Handle*>(h); }

  mutable Smr smr_;
};

// One thread's membership in a facade's reclamation domain: joins the
// dynamic handle registry on construction, leaves (donating any pending
// retires for adoption) on destruction.  Move-only; use one session per
// thread and do not share it.  A session pins no capacity: thousands of
// short-lived workers may open and close sessions against one facade.
// Each facade's Session derives from it and forwards its ops to impl_.
template <class Impl>
class ErasedSession {
 public:
  ErasedSession() = default;
  ErasedSession(ErasedSession&& o) noexcept
      : impl_(std::exchange(o.impl_, nullptr)), h_(o.h_) {}
  ErasedSession& operator=(ErasedSession&& o) noexcept {
    if (this != &o) {
      reset();
      impl_ = std::exchange(o.impl_, nullptr);
      h_ = o.h_;
    }
    return *this;
  }
  ~ErasedSession() { reset(); }

  explicit operator bool() const noexcept { return impl_ != nullptr; }

  // Leaves the domain early (idempotent).
  void reset() noexcept {
    if (impl_ != nullptr) {
      impl_->leave_handle(h_);
      impl_ = nullptr;
    }
  }

 protected:
  explicit ErasedSession(Impl* impl) : impl_(impl), h_(impl->join_handle()) {}

  Impl* impl_ = nullptr;
  void* h_ = nullptr;  // the domain's Handle, type-erased
};

// The facade shell: owns the erased cell, carries its identity and
// forwards the domain observers.  Move-only.
template <class Impl>
class Facade {
 public:
  // Domain-wide retired-but-unreclaimed gauge (the paper's Figures 10-12).
  std::int64_t pending_nodes() const { return impl_->pending_nodes(); }
  // Table 2 telemetry, summed over all handle records ever created (the
  // counters are cumulative across join/leave reuse).
  std::uint64_t restarts() const { return impl_->restarts(); }
  std::uint64_t recoveries() const { return impl_->recoveries(); }
  // Handle-registry gauges: sessions currently open (plus any handle the
  // structure itself holds), and the high-water record count.
  unsigned active_handles() const { return impl_->active_handles(); }
  std::size_t total_handle_records() const {
    return impl_->total_handle_records();
  }
  // Aggregated observability snapshot of the underlying domain (DESIGN.md
  // §8): retire/scan/barrier/orphan counters, limbo peak, scan-latency
  // percentiles.  Zeroed (enabled=false) when stats are compiled out or the
  // domain runs with track_stats=false.
  obs::StatsSnapshot stats() const { return impl_->stats(); }

  SchemeId scheme() const { return scheme_; }
  StructureId structure() const { return structure_; }
  const char* scheme_name() const { return scot::scheme_name(scheme_); }
  const char* structure_name() const {
    return scot::structure_name(structure_);
  }

 protected:
  Facade(SchemeId scheme, StructureId structure, std::unique_ptr<Impl> impl)
      : scheme_(scheme), structure_(structure), impl_(std::move(impl)) {}

  SchemeId scheme_;
  StructureId structure_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace scot::detail
