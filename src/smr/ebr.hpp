// EBR: epoch-based reclamation (Fraser 2004; Hart et al. 2007).
//
// Fast and easy to use, but *not robust*: a stalled thread freezes its
// published epoch, which blocks reclamation of everything retired at or after
// that epoch — memory grows without bound (the paper's motivating weakness,
// Section 2.2.1, and the behaviour our robustness tests demonstrate).
//
// Reclamation rule.  A thread entering an operation publishes the global
// epoch E; while inside the operation it can only reach nodes that were still
// linked when it entered.  A node retired at epoch R was unlinked before the
// retire, so any thread whose published reservation is > R entered after the
// unlink and cannot hold a reference.  Hence: free a retired node once
// `retire_epoch < min(active reservations)`.
//
// The reservation lives inside the Handle, scans walk the live handle
// registry, and membership, retire and leave() handoff come from
// DomainCore/LimboHandle (DESIGN.md §7).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/asymfence.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class EbrHandle;

class EbrDomain : public DomainCore<EbrDomain, EbrHandle> {
 public:
  static constexpr const char* kName = "EBR";
  static constexpr bool kRobust = false;
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  using Handle = EbrHandle;

  using DomainCore::DomainCore;

  std::uint64_t epoch() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  // Walks the live registry: records of departed threads hold an idle
  // reservation, so no active-bit filtering is needed.  Callers must issue
  // the heavy barrier first; the registry head is (re)read seq_cst after
  // it, which is what makes late joiners visible (DESIGN.md §7).
  std::uint64_t min_reservation() const noexcept;
};

class EbrHandle : public LimboHandle<EbrDomain, EbrHandle> {
 public:
  static constexpr std::uint64_t kIdle = EbrDomain::kIdle;

  using LimboHandle::LimboHandle;

  void begin_op() noexcept {
    // The reservation must be visible to reclaimers before any of this
    // operation's shared loads execute (StoreLoad): asymfence::publish,
    // whose edge on the membarrier path is the heavy barrier every scan
    // issues before reading the reservations (DESIGN.md §5).  The epoch
    // is loaded *before* the store (data dependency), so the published
    // reservation can never lag the clock value this operation validates
    // against.
    const std::uint64_t e = dom_->clock_.load(std::memory_order_acquire);
    asymfence::publish(reservation_, e, fences_);
  }
  void end_op() noexcept {
    reservation_.store(kIdle, std::memory_order_release);
  }

  // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
  template <class Src, class P = typename Src::value_type>
  [[gnu::always_inline]] P protect(const Src& src, unsigned) noexcept {
    return src.load(std::memory_order_acquire);
  }
  template <class T>
  void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
  void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}
  static constexpr bool op_valid() noexcept { return true; }
  void revalidate_op() noexcept {}

  // DomainCore hook: the reservation must be idle.
  void on_leave() {
    assert(reservation_.load(std::memory_order_relaxed) == kIdle &&
           "leave() with an operation in flight");
    LimboHandle::on_leave();
  }

 private:
  friend class EbrDomain;
  friend LimboHandle;

  // scan()'s body: frees every retired node no active reservation can
  // still reference.
  void reclaim_limbo() {
    const std::uint64_t min_res = dom_->min_reservation();
    free_unreserved(
        [&](const ReclaimNode* n) { return n->retire_era >= min_res; });
  }

  // Published epoch reservation, read by every scan.  Lives inside the
  // handle, so the reservation array grows with the registry.  Aligned to
  // its own false-sharing range; as the last member it is followed only by
  // the handle's tail padding, so no owner-written field shares its line.
  alignas(kFalseSharingRange) std::atomic<std::uint64_t> reservation_{kIdle};
};

inline std::uint64_t EbrDomain::min_reservation() const noexcept {
  std::uint64_t m = kIdle;
  for (const auto* r = registry_.head(); r != nullptr; r = r->next_record()) {
    const std::uint64_t v =
        r->handle.reservation_.load(std::memory_order_acquire);
    if (v < m) m = v;
  }
  return m;
}

}  // namespace scot
