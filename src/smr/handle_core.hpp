// CRTP bases shared by the per-thread handles of all reclamation schemes.
//
// A Handle is the per-thread facade of a reclamation domain: all allocation,
// protection and retirement flows through it.  Handles are *not* thread-safe;
// a joined handle must only ever be used by one thread at a time.
//
//  * `HandleCore` — what every handle has: allocation, the Table 2
//    counters, the retire/free counts behind the pending gauge, the obs
//    cell, the era tick, the scan barrier, and no-op defaults for the
//    DomainCore hooks (smr/domain_core.hpp).
//  * `LimboHandle` — the shared half of every reclaiming scheme (EBR,
//    HP/HPopt, HE, IBR, Hyaline): the private limbo list (Hyaline's open
//    batch), the whole retire path up to the threshold "donate or scan"
//    decision, adoption from the domain's retire mailbox, the bracket of
//    one reclaim round, and the background-reclaimer and leave()/teardown
//    hooks.
//  * `SlotBlock` — the inline, line-isolated indexed slots of HP/HPopt and
//    HE, with the publish/dup/clear steps both schemes share.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/align.hpp"
#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
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

// The per-handle slot cap: the size of the inline SlotBlock array, so
// DomainCore refuses SmrConfig::slots_per_thread above it.
inline constexpr unsigned kMaxSlots = 32;

// The indexed reservation slots of HP/HPopt (pointers) and HE (eras), held
// inline in the handle.  The block occupies its own false-sharing ranges, so
// a scan's per-record probe touches only slot lines, never a line the owner
// writes for anything else (DESIGN.md §7, records).  Every slot starts at
// T{}: the null pointer, or HE's idle era 0.  The per-node steps keep no
// bookkeeping and are force-inlined (DESIGN.md §6, per-node path).
template <class T>
struct alignas(kFalseSharingRange) SlotBlock {
  std::atomic<T> v[kMaxSlots]{};

  // Publishes `value` in slot `idx` under the domain's fence discipline
  // (asymfence::publish; DESIGN.md §5).
  [[gnu::always_inline]] void publish(unsigned idx, T value,
                                      asymfence::Path fences) noexcept {
    asymfence::publish(v[idx], value, fences);
  }

  // Copies slot i to slot j.  Scans read slots in ascending order, so a
  // copy toward a higher index keeps the value visible in at least one slot
  // (paper §3.2, DESIGN.md §4).
  [[gnu::always_inline]] void dup(unsigned i, unsigned j) noexcept {
    assert(i < j && "SCOT requires ascending-index dup (paper §3.2)");
    v[j].store(v[i].load(std::memory_order_relaxed),
               std::memory_order_release);
  }

  // Resets the first `n` slots, the range scans read, to `idle`
  // (release: the reserved value stays valid until the store is visible;
  // the owner reads none of them afterwards).  Unconditional: a superset of
  // whatever the operation wrote, and cheaper than testing each slot.
  void clear(unsigned n, T idle) noexcept {
    for (unsigned i = 0; i < n; ++i)
      v[i].store(idle, std::memory_order_release);
  }
};

static_assert(alignof(SlotBlock<ReclaimNode*>) == kFalseSharingRange);
static_assert(sizeof(SlotBlock<ReclaimNode*>) % kFalseSharingRange == 0);
static_assert(alignof(SlotBlock<std::uint64_t>) == kFalseSharingRange);
static_assert(sizeof(SlotBlock<std::uint64_t>) % kFalseSharingRange == 0);

// Derived may hide on_alloc_era() (the birth era alloc() stamps; 0 for
// schemes that never compare lifetimes) and the two DomainCore hooks.
template <class Domain, class Derived>
class HandleCore {
 public:
  HandleCore(Domain* dom, unsigned tid)
      : stats_(dom->obs_stats().make_cell(dom->config().track_stats)),
        dom_(dom),
        fences_(dom->fence_path()),
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
    return alloc_extra<T>(0, std::forward<Args>(args)...);
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
    // Stamp the birth era before the node can become reachable.  The header
    // is outside the object, so placement-new below does not disturb it.
    AllocHeader* hdr = header_of(mem);
    hdr->birth_era.store(derived()->on_alloc_era(), std::memory_order_release);
    hdr->alloc_size = static_cast<std::uint32_t>(bytes);
    hdr->debug_state = kNodeLive;
    return new (mem) T(std::forward<Args>(args)...);
  }

  // Frees a node that was never published into a shared structure (e.g. the
  // loser of an insertion CAS).  Bypasses retirement entirely.
  template <class T>
  void dealloc_unpublished(T* n) {
    assert(header_of(n)->debug_state == kNodeLive);
    dom_->pool().free(tid_, n, header_of(n)->alloc_size);
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

  // The one heavy barrier a scan or batch seal issues before reading the
  // reservations (DESIGN.md §5).
  void scan_barrier() noexcept {
    asymfence::heavy_barrier(fences_);
    obs::count(stats_, obs::Counter::kHeavyBarriers);
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
  // The domain's fence path, fixed at its construction and copied here so
  // protect/publish read one handle word, not dom_ and then the domain,
  // after every light-barrier clobber (DESIGN.md §6, per-node path).
  const asymfence::Path fences_;
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

// Derived provides reclaim_limbo(), the body of one reclaim round: read the
// reservations, then free every limbo node they do not cover
// (free_unreserved), or, for Hyaline, seal the limbo into one batch and
// hand it to the slots that could reach it.  Derived may hide on_retire(),
// the retire-time era step, and on_adopt(), its counterpart for a node
// adopted from the retire mailbox.
template <class Domain, class Derived>
class LimboHandle : public HandleCore<Domain, Derived> {
  using Base = HandleCore<Domain, Derived>;

 public:
  using Base::Base;
  using Base::stats_;

  // The trace span of one reclaim round (Hyaline's is a batch seal).
  static constexpr obs::TraceKind kRoundTrace = obs::TraceKind::kScan;

  void retire(ReclaimNode* n) {
    header_of(n)->debug_state = kNodeRetired;
    this->derived()->on_retire(n);
    limbo_.push(n);
    // With the background reclaimer active, mailbox adoption is its job;
    // when inactive, retirers self-heal the mailbox (leave() orphans and
    // any batch a stop stranded there).
    if (!dom_->bg_.is_active() && adopt_mailbox() > 0) {
      obs::count(stats_, obs::Counter::kOrphanAdoptions);
      obs::trace_instant(obs::TraceKind::kAdopt);
    }
    this->bump(this->retired, 1);
    obs::peak(stats_, limbo_.count);
    if (limbo_.count >= dom_->bg_.effective_scan_threshold()) {
      if (dom_->bg_.is_active()) {
        // Donate the whole chain (one CAS) and ring the doorbell: no scan,
        // no reservation snapshot, and no heavy barrier on this (or any)
        // mutator — the service thread issues one barrier for the entire
        // adopted backlog.
        donate_limbo();
        dom_->bg_.thread.ring();
        obs::count(stats_, obs::Counter::kBgBatchesDonated);
      } else {
        scan();
      }
    }
  }

  // The retire-time era step of EBR, HE and IBR: stamp the node's retire
  // era from the domain clock, then tick the clock.
  void on_retire(ReclaimNode* n) noexcept {
    n->retire_era = dom_->clock_.load(std::memory_order_acquire);
    this->era_tick();
  }
  // The limbo schemes stamped an adopted node when it was first retired.
  void on_adopt(ReclaimNode*) noexcept {}

  // One reclaim round over the whole limbo list.  The heavy barrier comes
  // before the reservations are read: every limbo node was unlinked before
  // it was retired, so a reservation the barrier does not surface belongs
  // to a thread whose validating re-read or first shared load is ordered
  // after those unlinks, and it cannot reach any of them (DESIGN.md §5).
  // reclaim_limbo() reads the registry head after the barrier, so the same
  // argument covers records of late-joining threads (DESIGN.md §7).
  void scan() {
    obs::TraceSpan span(Derived::kRoundTrace);
    const std::uint64_t stats_t0 = obs::scan_begin(stats_);
    this->scan_barrier();
    this->derived()->reclaim_limbo();
    obs::scan_end(stats_, stats_t0);
  }

  // --- background-reclaimer hooks (service thread only; DESIGN.md §9) ---
  // Adopt every donated chain into this handle's limbo list.
  void bg_collect() { adopt_mailbox(); }
  // Run the shared scan (one heavy barrier) if there is a backlog.
  bool bg_reclaim() {
    if (limbo_.count == 0) return false;
    scan();
    return true;
  }

  // --- DomainCore hooks ----------------------------------------------------
  // A final scan reclaims what it can; the rest is donated for adoption by
  // the next retirer on any live handle.  With the service thread running
  // the whole backlog goes to it instead, with no exit scan.
  void on_leave() {
    if (limbo_.count == 0) return;
    if (!dom_->bg_.is_active()) scan();
    donate_orphans();
  }
  ReclaimNode* take_retired() noexcept { return limbo_.take(); }

 protected:
  using Base::dom_;

  // Donates the whole limbo chain to the domain's retire mailbox — on
  // leave(), or on the background reclaimer's donate-instead-of-scan hot
  // path — and resets the list.  O(1): one CAS push of the [head .. tail]
  // chain.  Returns the number of nodes donated (0 = nothing to donate).
  unsigned donate_limbo() noexcept {
    const unsigned donated = limbo_.count;
    if (donated == 0) return 0;
    dom_->orphans_.donate(limbo_.head, limbo_.tail);
    limbo_.take();
    return donated;
  }

  // leave()'s handoff: donates the limbo and wakes the service thread if
  // it runs, else the next retirer adopts it.
  void donate_orphans() noexcept {
    if (donate_limbo() == 0) return;
    if (dom_->bg_.is_active()) dom_->bg_.thread.ring();
    obs::count(stats_, obs::Counter::kOrphanDonations);
  }

  // Drains the domain's retire mailbox into the private limbo list.
  // Returns the number of nodes adopted (0 = the mailbox was empty or
  // raced empty).
  unsigned adopt_mailbox() noexcept {
    if (dom_->orphans_.empty()) return 0;
    ReclaimNode* n = dom_->orphans_.take_all();
    unsigned adopted = 0;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      this->derived()->on_adopt(n);
      limbo_.push(n);
      ++adopted;
      n = next;
    }
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
        dom_->pool().free(this->tid_, n, header_of(n)->alloc_size);
        ++freed;
      }
      n = next;
    }
    this->bump(this->reclaimed, freed);
  }

  LimboList limbo_;
};

}  // namespace scot
