// CRTP bases shared by the per-thread handles of all reclamation schemes.
//
// A Handle is the per-thread facade of a reclamation domain: all allocation,
// protection and retirement flows through it.  Handles are *not* thread-safe;
// a joined handle must only ever be used by one thread at a time.
//
//  * `HandleCore` — what every handle has: allocation, typed retirement,
//    the Table 2 counters, the retire/free counts behind the pending gauge,
//    the obs cell, the era tick, the scan barrier, and no-op defaults for
//    the DomainCore hooks (smr/domain_core.hpp).
//  * `LimboHandle` — the shared half of the four limbo-list schemes (EBR,
//    HP/HPopt, HE, IBR): the private limbo list, the whole retire path up to
//    the threshold "donate or scan" decision, mailbox adoption, and the
//    background-reclaimer and leave()/teardown hooks.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/guard.hpp"
#include "smr/handle_registry.hpp"
#include "smr/node_pool.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

// Intrusive singly-linked list of retired nodes awaiting reclamation.  The
// tail pointer (the oldest node — push prepends) makes whole-chain donation
// to a RetireMailbox O(1), which the background-reclaim hot path relies on:
// with the reclaimer active every threshold-ful of retires donates the full
// chain instead of scanning (smr/reclaimer.hpp, DESIGN.md §9).
struct LimboList {
  ReclaimNode* head = nullptr;
  ReclaimNode* tail = nullptr;
  unsigned count = 0;

  void push(ReclaimNode* n) noexcept {
    n->smr_next = head;
    if (head == nullptr) tail = n;
    head = n;
    ++count;
  }

  ReclaimNode* take() noexcept {
    ReclaimNode* h = head;
    head = nullptr;
    tail = nullptr;
    count = 0;
    return h;
  }
};

// Donates a limbo list's whole chain to a retire mailbox — the domain's
// orphan mailbox on leave(), or the background reclaimer's mailbox on the
// donate-instead-of-scan hot path — and resets the list.  O(1): one CAS
// push of the [head .. tail] chain.  Returns the number of nodes donated
// (0 = no donation happened).
inline unsigned donate_limbo(LimboList& limbo,
                             RetireMailbox& mailbox) noexcept {
  const unsigned donated = limbo.count;
  if (donated == 0) return 0;
  mailbox.donate(limbo.head, limbo.tail);
  limbo.take();
  return donated;
}

// Adopts every donated retire into `limbo` (the limbo-list schemes' side of
// the handoff; Hyaline splices into its batch instead).  Returns the number
// of nodes adopted (0 = the mailbox was raced empty).
inline unsigned adopt_orphans(RetireMailbox& mailbox,
                              LimboList& limbo) noexcept {
  ReclaimNode* n = mailbox.take_all();
  unsigned adopted = 0;
  while (n != nullptr) {
    ReclaimNode* next = n->smr_next;
    limbo.push(n);
    ++adopted;
    n = next;
  }
  return adopted;
}

// Derived may hide on_alloc_era() (the birth era alloc() stamps; 0 for
// schemes that never compare lifetimes) and the two DomainCore hooks.
template <class Domain, class Derived>
class HandleCore {
 public:
  HandleCore(Domain* dom, unsigned tid)
      : stats_(dom->obs_stats().make_cell(dom->config().track_stats)),
        dom_(dom),
        tid_(tid) {}

  HandleCore(const HandleCore&) = delete;
  HandleCore& operator=(const HandleCore&) = delete;

  unsigned tid() const noexcept { return tid_; }
  Domain& domain() noexcept { return *dom_; }

  // Allocates and constructs a node.  T must derive from ReclaimNode and be
  // trivially destructible: reclamation is type-erased and never runs
  // destructors (all pooled node types in this library are PODs plus
  // atomics).
  template <class T, class... Args>
  T* alloc(Args&&... args) {
    static_assert(std::is_base_of_v<ReclaimNode, T>);
    static_assert(std::is_trivially_destructible_v<T>,
                  "pooled nodes must be trivially destructible");
    void* mem = dom_->pool().alloc(tid_, sizeof(T));
    // Stamp the birth era before the node can become reachable.  The header
    // is outside the object, so placement-new below does not disturb it.
    header_of(mem)->birth_era.store(derived()->on_alloc_era(),
                                    std::memory_order_release);
    T* n = new (mem) T(std::forward<Args>(args)...);
    n->alloc_size = sizeof(T);
    n->debug_state = kNodeLive;
    return n;
  }

  // alloc() with `extra` trailing bytes for inline variable-length payloads
  // (string keys, value blobs).  The payload lives inside the pooled cell
  // right after T, so it is freed with the node and needs no destructor —
  // which keeps the trivially-destructible contract intact.  The caller
  // copies the bytes in after construction; the publishing CAS (release on
  // every scheme's traversal protocol) orders those writes before any
  // reader can reach the node.
  template <class T, class... Args>
  T* alloc_extra(std::size_t extra, Args&&... args) {
    static_assert(std::is_base_of_v<ReclaimNode, T>);
    static_assert(std::is_trivially_destructible_v<T>,
                  "pooled nodes must be trivially destructible");
    const std::size_t bytes = sizeof(T) + extra;
    assert(bytes <= NodePool::max_node_bytes());
    void* mem = dom_->pool().alloc(tid_, bytes);
    header_of(mem)->birth_era.store(derived()->on_alloc_era(),
                                    std::memory_order_release);
    T* n = new (mem) T(std::forward<Args>(args)...);
    n->alloc_size = static_cast<std::uint32_t>(bytes);
    n->debug_state = kNodeLive;
    return n;
  }

  // Frees a node that was never published into a shared structure (e.g. the
  // loser of an insertion CAS).  Bypasses retirement entirely.
  template <class T>
  void dealloc_unpublished(T* n) {
    assert(n->debug_state == kNodeLive);
    dom_->pool().free(tid_, n, n->alloc_size);
  }

  // API v2 typed retirement: accepts the protected view a traversal already
  // holds.  The derived scheme's retire(ReclaimNode*) stays the
  // implementation; derived classes re-expose this overload with
  // `using Base::retire;`.
  template <class T>
  void retire(Protected<T> p) {
    static_assert(std::is_base_of_v<ReclaimNode, T>);
    assert(p.get() != nullptr && "cannot retire an empty Protected");
    derived()->retire(static_cast<ReclaimNode*>(p.get()));
  }

  std::uint64_t on_alloc_era() noexcept { return 0; }

  // --- DomainCore hooks (defaults: nothing private to hand off) ------------
  // leave(): hand the private retire chain off.  Contract: no operation in
  // flight.
  void on_leave() {}
  // Domain teardown: detach the private retire chain for the core to free.
  ReclaimNode* take_retired() noexcept { return nullptr; }

  // --- data-structure statistics (Table 2 of the paper) -------------------
  // Incremented by the data structures, summed by DomainCore::restarts() /
  // recoveries().  Plain fields: each handle is single-threaded.
  // Deliberately NOT reset on record reuse: they are cumulative domain
  // telemetry.
  std::uint64_t ds_restarts = 0;    // full traversal restarts
  std::uint64_t ds_recoveries = 0;  // §3.2.1 recovery-optimization escapes

  // Back-pointer to this handle's HandleRegistry record, set by the
  // domain's join().  Opaque here (the record type depends on the concrete
  // Handle); the domain casts it back in leave().
  void* registry_record_ = nullptr;

  // Observability cell: one padded counter block per registry record,
  // cumulative across claim/release reuse like the ds_* fields above.
  // nullptr when stats are compiled out (SCOT_STATS=0) or the domain was
  // built with track_stats=false — every obs:: helper no-ops on null.
  obs::StatsCell* stats_ = nullptr;

 protected:
  Derived* derived() noexcept { return static_cast<Derived*>(this); }

  // Bumps `retired`/`reclaimed` with a load+store pair, like obs::count.
  // The release pairs with DomainCore::read_totals()' acquire: a reader
  // that sees a free also sees the retire that preceded it.
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

  // The one process-wide heavy barrier a scan or batch seal issues before
  // reading the reservations (asymmetric path only; DESIGN.md §5).
  void scan_barrier() noexcept {
    if (dom_->fence_path_ != asymfence::Path::kClassic) {
      asymfence::heavy_barrier(dom_->fence_path_);
      obs::count(stats_, obs::Counter::kHeavyBarriers);
    }
  }

  // Advances the domain's era clock once per `era_freq` calls on this
  // handle (allocations and/or retirements, per scheme).
  void era_tick() noexcept {
    if (++tick_ >= dom_->bg_.effective_era_freq()) {
      tick_ = 0;
      dom_->clock_.fetch_add(1, std::memory_order_acq_rel);
      obs::count(stats_, obs::Counter::kEraAdvances);
    }
  }

  Domain* dom_;
  unsigned tid_;
  unsigned tick_ = 0;

 public:
  // --- retire/free counts (DESIGN.md §8) ------------------------------------
  // The only count of retired and freed nodes, summed by DomainCore into
  // pending_nodes() and the snapshot totals.  Never gated (the adaptive
  // controller reads them); single-writer; cumulative across record reuse.
  // Last, so they share the line the retire path already writes (tick_,
  // the limbo list) and leave the registry links' line read-mostly.
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> reclaimed{0};
};

// Derived provides scan() (free every limbo node no reservation covers) and
// `static constexpr bool kRetireEras`: true when retire() stamps the node's
// retire_era from the domain clock and ticks the clock (EBR, HE, IBR).
template <class Domain, class Derived>
class LimboHandle : public HandleCore<Domain, Derived> {
  using Base = HandleCore<Domain, Derived>;

 public:
  using Base::Base;
  using Base::retire;  // typed retire(Protected<T>) — API v2
  using Base::stats_;

  void retire(ReclaimNode* n) {
    n->debug_state = kNodeRetired;
    if constexpr (Derived::kRetireEras)
      n->retire_era = dom_->clock_.load(std::memory_order_acquire);
    limbo_.push(n);
    // With the background reclaimer active, mailbox adoption is its job;
    // when inactive, retirers self-heal both mailboxes (leave() orphans
    // and anything stranded in the background mailbox by a stop).
    if (!dom_->bg_.is_active() && adopt_all_mailboxes() > 0) {
      obs::count(stats_, obs::Counter::kOrphanAdoptions);
      obs::trace_instant(obs::TraceKind::kAdopt);
    }
    this->bump(this->retired, 1);
    obs::peak(stats_, limbo_.count);
    if constexpr (Derived::kRetireEras) this->era_tick();
    if (limbo_.count >= dom_->bg_.effective_scan_threshold()) {
      if (dom_->bg_.is_active()) {
        // Donate the whole chain (one CAS) and ring the doorbell: no scan,
        // no reservation snapshot, and on the asymmetric path no heavy
        // barrier on this (or any) mutator — the service thread issues one
        // barrier for the entire adopted backlog.
        donate_limbo(limbo_, dom_->bg_.mailbox);
        dom_->bg_.thread.ring();
        obs::count(stats_, obs::Counter::kBgBatchesDonated);
      } else {
        this->derived()->scan();
      }
    }
  }

  // --- background-reclaimer hooks (service thread only; DESIGN.md §9) ---
  // Adopt every donated chain into this handle's limbo list.
  void bg_collect() { adopt_all_mailboxes(); }
  // Run the shared scan (one heavy barrier) if there is a backlog.
  bool bg_reclaim() {
    if (limbo_.count == 0) return false;
    this->derived()->scan();
    return true;
  }

  // --- DomainCore hooks ----------------------------------------------------
  // A final scan reclaims what it can; the rest is donated for adoption by
  // the next retirer on any live handle.  With the service thread running
  // the whole backlog goes to it instead, with no exit scan.
  void on_leave() {
    if (limbo_.count == 0) return;
    if (dom_->bg_.is_active()) {
      donate_limbo(limbo_, dom_->bg_.mailbox);
      dom_->bg_.thread.ring();
      obs::count(stats_, obs::Counter::kOrphanDonations);
    } else {
      this->derived()->scan();
      if (donate_limbo(limbo_, dom_->orphans_) > 0)
        obs::count(stats_, obs::Counter::kOrphanDonations);
    }
  }
  ReclaimNode* take_retired() noexcept { return limbo_.take(); }

 protected:
  using Base::dom_;

  // Drains both shared mailboxes into the private limbo list; returns the
  // number of nodes adopted.
  unsigned adopt_all_mailboxes() {
    unsigned adopted = 0;
    if (!dom_->orphans_.empty())
      adopted += adopt_orphans(dom_->orphans_, limbo_);
    if (!dom_->bg_.mailbox.empty())
      adopted += adopt_orphans(dom_->bg_.mailbox, limbo_);
    return adopted;
  }

  // The shared body of every limbo scan: frees each node `reserved` does
  // not cover, keeps the rest, and counts the frees.
  template <class Reserved>
  void free_unreserved(Reserved&& reserved) {
    ReclaimNode* n = limbo_.take();
    std::uint64_t freed = 0;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      if (reserved(n)) {
        limbo_.push(n);
      } else {
        dom_->pool().free(this->tid_, n, n->alloc_size);
        ++freed;
      }
      n = next;
    }
    this->bump(this->reclaimed, freed);
  }

  LimboList limbo_;
};

}  // namespace scot
