// HE: hazard eras (Ramalhete & Correia, SPAA 2017), with the reservation-
// snapshot scan optimization the paper applies to it (Section 5: "we
// implemented a similar optimization for HE and IBR").
//
// HE keeps the hazard-pointer programming model (indexed protection slots,
// dup) but publishes *eras* instead of pointers: protect(idx) records the
// global era at which the load was performed.  A retired node is reclaimable
// once no published era intersects its [birth, retire] lifetime.  Compared to
// HP this replaces the per-node publication fence with (amortized) one fence
// per era change.
//
// The era slots live inline in the Handle as one line-isolated SlotBlock and
// scans walk the live registry; leave() clears the slots, then LimboHandle
// scans and donates the leftover limbo.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/asymfence.hpp"
#include "common/chunked_list.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class HeHandle;

class HeDomain : public DomainCore<HeDomain, HeHandle> {
 public:
  static constexpr const char* kName = "HE";
  static constexpr bool kRobust = true;
  // Eras start at 1; 0 is also the value SlotBlock starts every slot at.
  static constexpr std::uint64_t kIdleEra = 0;
  using Handle = HeHandle;

  using DomainCore::DomainCore;

  std::uint64_t era() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  // Walks the live registry; records of departed threads hold idle slots.
  // `Out` is any push_back-able container (ChunkedList in scans,
  // std::vector in tests).
  template <class Out>
  void collect_eras(Out& out) const;
};

class HeHandle : public LimboHandle<HeDomain, HeHandle> {
 public:
  static constexpr std::uint64_t kIdleEra = HeDomain::kIdleEra;

  using LimboHandle::LimboHandle;

  // HE has no eager activation store: an operation becomes visible to
  // reclaimers at its *first slot publish* (end_op cleared every slot, so
  // the first protect() of the next operation always publishes).  That
  // store already runs the asymmetric discipline below — release +
  // compiler barrier, with the scan-side heavy barrier restoring the
  // StoreLoad edge (DESIGN.md §5, activation case) — so begin_op stays
  // free under both disciplines.
  void begin_op() noexcept {}

  // Idles the whole scanned range: a superset of the slots this operation
  // wrote, so protect/publish/dup keep no bookkeeping.
  void end_op() noexcept {
    slots_.clear(dom_->cfg_.slots_per_thread, kIdleEra);
  }

  // HE get_protected: loop until the global era observed after the load
  // equals the era published in the slot.  When the era is already
  // published (the common case within one era period) this is a plain
  // load — the fence amortization that makes HE faster than HP.  Only the
  // era-change publication carries a fence, and that is the store the
  // asymmetric discipline relaxes: the loop's re-read of src/clock must
  // be ordered after the slot store, and scans restore that edge with a
  // heavy barrier before collect_eras() (DESIGN.md §5).
  // `Src` is std::atomic<P> or StableAtomic<P>.
  template <class Src, class P = typename Src::value_type>
  [[gnu::always_inline]] P protect(const Src& src, unsigned idx) noexcept {
    assert(idx < dom_->cfg_.slots_per_thread);
    std::uint64_t prev = slots_.v[idx].load(std::memory_order_relaxed);
    const asymfence::Path fences = fences_;
    for (;;) {
      P v = src.load(std::memory_order_acquire);
      const std::uint64_t e = dom_->clock_.load(std::memory_order_seq_cst);
      if (e == prev) return v;
      slots_.publish(idx, e, fences);
      prev = e;
    }
  }

  template <class T>
  [[gnu::always_inline]] void publish(T* /*p*/, unsigned idx) noexcept {
    assert(idx < dom_->cfg_.slots_per_thread);
    // Publishing the current era protects everything alive at it,
    // including the immortal anchor this is used for.
    slots_.publish(idx, dom_->clock_.load(std::memory_order_acquire),
                   fences_);
  }

  [[gnu::always_inline]] void dup(unsigned i, unsigned j) noexcept {
    assert(j < dom_->cfg_.slots_per_thread);
    slots_.dup(i, j);
  }

  static constexpr bool op_valid() noexcept { return true; }
  void revalidate_op() noexcept {}

  std::uint64_t on_alloc_era() noexcept {
    era_tick();
    return dom_->clock_.load(std::memory_order_acquire);
  }

  // DomainCore hook: clears the era slots before the final scan.
  void on_leave() {
    end_op();
    LimboHandle::on_leave();
  }

 private:
  friend class HeDomain;
  friend LimboHandle;

  // scan()'s body.  Reservation snapshot (sorted) — one pass over the live
  // registry per scan instead of one per retired node.
  void reclaim_limbo() {
    snapshot_.clear();
    dom_->collect_eras(snapshot_);
    std::sort(snapshot_.begin(), snapshot_.end());
    free_unreserved([&](ReclaimNode* n) {
      return lifetime_reserved(birth_era_of(n), n->retire_era);
    });
  }

  // True if some published era lies within [birth, retire].
  bool lifetime_reserved(std::uint64_t birth,
                         std::uint64_t retire) noexcept {
    auto it = std::lower_bound(snapshot_.begin(), snapshot_.end(), birth);
    return it != snapshot_.end() && *it <= retire;
  }

  // Per-thread era slots, inline and line-isolated (SlotBlock); scans read,
  // and end_op() clears, the first cfg.slots_per_thread.  Reused across
  // join/leave cycles.
  SlotBlock<std::uint64_t> slots_;
  // Scan scratch, reused across scans; grows with the registry.
  ChunkedList<std::uint64_t> snapshot_;
};

template <class Out>
void HeDomain::collect_eras(Out& out) const {
  for (const auto* r = registry_.head(); r != nullptr; r = r->next_record()) {
    for (unsigned i = 0; i < cfg_.slots_per_thread; ++i) {
      const std::uint64_t e =
          r->handle.slots_.v[i].load(std::memory_order_acquire);
      if (e != kIdleEra) out.push_back(e);
    }
  }
}

}  // namespace scot
