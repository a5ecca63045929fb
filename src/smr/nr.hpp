// NR: the "no reclamation" baseline (leak memory).
//
// The paper's throughput figures include NR as the practical upper bound for
// performance: retirement is a counter bump and nothing is ever reclaimed.
// Interestingly the paper observes that EBR (and others) can *beat* NR when
// recycling is cheaper than fresh allocation — with this library's pool the
// same effect reproduces, because NR always takes the carve path while the
// reclaiming schemes hit their thread-local free lists.
//
// NR has no reservations and no private retire chain, so it is DomainCore
// with nothing on top: the default (no-op) leave/teardown hooks, and an
// inert background surface because its handle offers no bg_* hooks.
#pragma once

#include "smr/domain_core.hpp"

namespace scot {

class NrHandle;

class NoReclaimDomain : public DomainCore<NoReclaimDomain, NrHandle> {
 public:
  static constexpr const char* kName = "NR";
  static constexpr bool kRobust = false;
  using Handle = NrHandle;

  using DomainCore::DomainCore;
};

class NrHandle : public HandleCore<NoReclaimDomain, NrHandle> {
 public:
  using HandleCore::HandleCore;

  void begin_op() noexcept {}
  void end_op() noexcept {}

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

  void retire(ReclaimNode* n) noexcept {
    header_of(n)->debug_state = kNodeRetired;
    bump(retired, 1);
  }
};

}  // namespace scot
