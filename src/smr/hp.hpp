// HP: hazard pointers (Michael 2004), in the two variants the paper
// evaluates:
//
//  * `HpDomain`    — the original scheme: every limbo-list scan re-reads the
//                    global hazard array once per retired node.
//  * `HpOptDomain` — "HPopt": captures one local snapshot of all hazard slots
//                    before scanning the limbo list and binary-searches it
//                    (the optimization the paper borrows from Hyaline [26]).
//                    The paper reports a substantial difference in some
//                    tests; bench_micro_smr and the figure benches expose it.
//
// protect(src, idx) implements Figure 1 of the paper: publish the pointer
// (with logical-deletion bits cleared) in slot `idx`, then re-read `src`
// until it is stable.  dup(i, j) copies slot i to slot j; SCOT requires all
// dup calls to copy toward *higher* indices because scans read slots in
// ascending order (see DESIGN.md §4).
//
// The hazard slots live inline in the Handle as one SlotBlock (its own
// false-sharing ranges inside the registry record), so the per-node
// is_hazard() probe touches one slot line per record; scans walk the live
// registry.  leave() clears the slots, then LimboHandle scans and donates
// the leftover limbo.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/asymfence.hpp"
#include "common/chunked_list.hpp"
#include "smr/domain_core.hpp"

namespace scot {

template <bool kSnapshotScan>
class HpHandle;

template <bool kSnapshotScan>
class HazardPointerDomain
    : public DomainCore<HazardPointerDomain<kSnapshotScan>,
                        HpHandle<kSnapshotScan>> {
  using Core = DomainCore<HazardPointerDomain, HpHandle<kSnapshotScan>>;

 public:
  static constexpr const char* kName = kSnapshotScan ? "HPopt" : "HP";
  static constexpr bool kRobust = true;
  using Handle = HpHandle<kSnapshotScan>;

  using Core::Core;

  bool is_hazard(const ReclaimNode* n) const noexcept {
    for (const auto* r = this->registry_.head(); r != nullptr;
         r = r->next_record()) {
      for (unsigned i = 0; i < this->cfg_.slots_per_thread; ++i) {
        if (r->handle.slots_.v[i].load(std::memory_order_acquire) == n)
          return true;
      }
    }
    return false;
  }

  // Ascending slot order within each record; paired with ascending-index
  // dup this guarantees a protected node is seen in at least one slot
  // (paper §3.2).  Walks the live registry — records of departed threads
  // hold cleared slots and cost one load each.  `Out` is any push_back-able
  // container (ChunkedList in scans, std::vector in tests).
  template <class Out>
  void collect_hazards(Out& out) const {
    for (const auto* r = this->registry_.head(); r != nullptr;
         r = r->next_record()) {
      for (unsigned i = 0; i < this->cfg_.slots_per_thread; ++i) {
        ReclaimNode* v = r->handle.slots_.v[i].load(std::memory_order_acquire);
        if (v != nullptr) out.push_back(v);
      }
    }
  }
};

template <bool kSnapshotScan>
class HpHandle
    : public LimboHandle<HazardPointerDomain<kSnapshotScan>,
                         HpHandle<kSnapshotScan>> {
  using Domain = HazardPointerDomain<kSnapshotScan>;
  using Base = LimboHandle<Domain, HpHandle>;

 public:
  using Base::Base;

 protected:
  // The base is dependent, so its members need explicit re-introduction.
  using Base::dom_;
  using Base::fences_;

 public:
  void begin_op() noexcept {}

  // Clears the whole scanned range: a superset of the slots this operation
  // wrote, so protect/publish/dup keep no bookkeeping.
  void end_op() noexcept { slots_.clear(dom_->cfg_.slots_per_thread, nullptr); }

  // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
  template <class Src, class P = typename Src::value_type>
  [[gnu::always_inline]] P protect(const Src& src, unsigned idx) noexcept {
    assert(idx < dom_->cfg_.slots_per_thread);
    P cur = src.load(std::memory_order_acquire);
    const asymfence::Path fences = fences_;
    for (;;) {
      // The publication is ordered before the re-read (StoreLoad), which
      // the HP safety argument requires: if the re-read still sees `cur`,
      // the publication preceded any subsequent unlink of the link we
      // loaded from, so a retirement scan must observe the slot.  On the
      // membarrier path that edge comes from the heavy barrier every scan
      // issues before reading the slots (DESIGN.md §5).
      slots_.publish(idx, smr_raw(cur), fences);
      P again = src.load(std::memory_order_acquire);
      if (again == cur) break;
      cur = again;
    }
    return cur;
  }

  // Non-validating publication, for immortal anchors (sentinel nodes that
  // are never retired).  Do NOT use for reclaimable nodes.
  template <class T>
  [[gnu::always_inline]] void publish(T* p, unsigned idx) noexcept {
    assert(idx < dom_->cfg_.slots_per_thread);
    slots_.publish(idx, smr_raw(p), fences_);
  }

  [[gnu::always_inline]] void dup(unsigned i, unsigned j) noexcept {
    assert(j < dom_->cfg_.slots_per_thread);
    slots_.dup(i, j);
  }

  static constexpr bool op_valid() noexcept { return true; }
  void revalidate_op() noexcept {}

  // Hazard pointers compare addresses, not eras: retire stamps nothing.
  void on_retire(ReclaimNode*) noexcept {}

  // DomainCore hook: clears the hazard slots before the final scan.
  void on_leave() {
    end_op();
    Base::on_leave();
  }

 private:
  friend Domain;
  friend Base;

  // scan()'s body: frees every limbo node no hazard slot holds.
  void reclaim_limbo() {
    if constexpr (kSnapshotScan) {
      snapshot_.clear();
      dom_->collect_hazards(snapshot_);
      std::sort(snapshot_.begin(), snapshot_.end());
      this->free_unreserved([&](ReclaimNode* n) {
        return std::binary_search(snapshot_.begin(), snapshot_.end(), n);
      });
    } else {
      this->free_unreserved(
          [&](const ReclaimNode* n) { return dom_->is_hazard(n); });
    }
  }

  // Per-thread hazard slots, inline and line-isolated (SlotBlock); scans
  // read, and end_op() clears, the first cfg.slots_per_thread.  Reused
  // across join/leave cycles.
  SlotBlock<ReclaimNode*> slots_;
  // HPopt scratch, reused across scans; grows with the registry.
  ChunkedList<ReclaimNode*> snapshot_;
};

using HpDomain = HazardPointerDomain<false>;
using HpOptDomain = HazardPointerDomain<true>;

}  // namespace scot
