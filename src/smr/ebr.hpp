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
#include "obs/stats.hpp"
#include "obs/trace.hpp"
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
  // reservation, so no active-bit filtering is needed.  Callers on the
  // asymmetric path must issue the heavy barrier first; the registry head
  // is (re)read seq_cst after it, which is what makes late joiners visible
  // (DESIGN.md §7).
  std::uint64_t min_reservation() const noexcept;
};

class EbrHandle : public LimboHandle<EbrDomain, EbrHandle> {
 public:
  static constexpr bool kRetireEras = true;
  static constexpr std::uint64_t kIdle = EbrDomain::kIdle;

  using LimboHandle::LimboHandle;

  void begin_op() noexcept {
    // The reservation must be visible to reclaimers before any of this
    // operation's shared loads execute (StoreLoad).  Classic: a seq_cst
    // activation store.  Asymmetric: release store + compiler barrier;
    // the StoreLoad edge is restored by the heavy barrier every scan
    // issues before reading the reservations (DESIGN.md §5).  The epoch
    // is loaded *before* the store (data dependency), so the published
    // reservation can never lag the clock value this operation validates
    // against.
    const std::uint64_t e = dom_->clock_.load(std::memory_order_acquire);
    const asymfence::Path fences = dom_->fence_path_;
    if (fences == asymfence::Path::kClassic) {
      reservation_.store(e, std::memory_order_seq_cst);
    } else {
      reservation_.store(e, std::memory_order_release);
      asymfence::light_barrier(fences);
    }
  }
  void end_op() noexcept {
    reservation_.store(kIdle, std::memory_order_release);
  }

  // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
  template <class Src, class P = typename Src::value_type>
  P protect(const Src& src, unsigned /*idx*/) noexcept {
    return src.load(std::memory_order_acquire);
  }
  template <class T>
  void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
  void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}
  static constexpr bool op_valid() noexcept { return true; }
  void revalidate_op() noexcept {}

  // Frees every retired node no active reservation can still reference.
  void scan() {
    obs::TraceSpan span(obs::TraceKind::kScan);
    const std::uint64_t stats_t0 = obs::scan_begin(stats_);
    // Surface in-flight activation stores before snapshotting the
    // reservations; a reservation the barrier does not surface belongs
    // to a thread whose first shared load is ordered after every unlink
    // in this batch (DESIGN.md §5, activation case).
    scan_barrier();
    const std::uint64_t min_res = dom_->min_reservation();
    free_unreserved(
        [&](const ReclaimNode* n) { return n->retire_era >= min_res; });
    obs::scan_end(stats_, stats_t0);
  }

  // DomainCore hook: the reservation must be idle.
  void on_leave() {
    assert(reservation_.load(std::memory_order_relaxed) == kIdle &&
           "leave() with an operation in flight");
    LimboHandle::on_leave();
  }

 private:
  friend class EbrDomain;

  // Published epoch reservation, read by every scan.  Lives inside the
  // handle (each registry record is kFalseSharingRange-aligned), so the
  // reservation array grows with the registry.
  std::atomic<std::uint64_t> reservation_{kIdle};
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
