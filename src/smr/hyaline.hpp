// Hyaline-1S (Nikolaev & Ravindran, PLDI 2021): snapshot-free robust
// reclamation with distributed reference counting.
//
// Mechanics reproduced here:
//  * One reservation *slot* per handle: { head of a retirement list, era }.
//    enter() publishes the current era and activates the slot; leave()
//    detaches the slot's accumulated list and decrements the reference
//    count of every batch that appears on it.
//  * retire() accumulates nodes into a per-thread *batch*.  A full batch is
//    handed to every active slot whose era could allow the owning thread to
//    hold a reference (slot era >= batch min birth era — the "1S" filter);
//    each insertion uses a distinct member node of the batch as the list
//    entry, which is why the batch must have at least as many nodes as
//    there are slots.  With dynamic membership the required batch size is
//    `max(batch_capacity, live records + 1)` — it adapts as threads join.
//  * The batch's reference counter starts with a creator guard so that
//    concurrent leave() decrements cannot hit zero before all insertions
//    are accounted; whichever thread moves the counter to zero frees the
//    whole batch ("reclamation by any thread", the property the paper
//    credits for Hyaline's performance).
//  * Robustness: protect() checks the birth era of the loaded node; if the
//    node is younger than the published era the thread refreshes its
//    reservation and raises a restart flag that the data structures poll
//    via op_valid().  The type-stable pool guarantees this birth-era read
//    is safe even if the node was concurrently reclaimed (see
//    reclaim_node.hpp).
//
// The reservation slot lives inside the Handle and seal_batch() walks the
// live registry.  leave() donates the unsealed batch to the domain's orphan
// mailbox — the natural Hyaline handoff, since sealed batches are already
// owned by "whoever drops the last reference".
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class HyalineHandle;

class HyalineDomain : public DomainCore<HyalineDomain, HyalineHandle> {
 public:
  static constexpr const char* kName = "HLN";
  static constexpr bool kRobust = true;
  using Handle = HyalineHandle;

  using DomainCore::DomainCore;

  std::uint64_t era() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }
  // The configured batch-size floor; the effective threshold also adapts
  // upward to the live registry size (see HyalineHandle::required_batch).
  unsigned batch_capacity() const noexcept { return reclaim_threshold(cfg_); }

  // DomainCore hook: Hyaline's reclaim cadence is the batch size, so that
  // is what the adaptive controller tunes (era_freq rides along for the
  // clock rate).  0 = auto: max_threads + 1, the minimum that guarantees a
  // distinct member node per reservation slot.
  static unsigned reclaim_threshold(const SmrConfig& cfg) noexcept {
    return cfg.batch_capacity != 0 ? cfg.batch_capacity : cfg.max_threads + 1;
  }
};

class HyalineHandle : public HandleCore<HyalineDomain, HyalineHandle> {
 public:
  using HandleCore::HandleCore;
  using HandleCore::retire;  // typed retire(Protected<T>) — API v2

  void begin_op() noexcept {
    era_local_ = dom_->clock_.load(std::memory_order_acquire);
    slot_.era.store(era_local_, std::memory_order_release);
    // Activation must be visible to retirers before this operation
    // performs any shared loads (StoreLoad).  Classic: a seq_cst head
    // store.  Asymmetric: release store + compiler barrier; seal_batch()
    // compensates with one heavy barrier before reading the slots
    // (DESIGN.md §5, activation case).  The era store above is release-
    // ordered before the head store either way, so a retirer that sees
    // the slot active also sees an era at least as new as era_local_.
    const asymfence::Path fences = dom_->fence_path_;
#ifndef NDEBUG
    // Debug check that the previous operation deactivated the slot.  An
    // exchange (a full RMW even at relaxed strength) reads the
    // coherence-latest value, so the check cannot misfire on a stale
    // load under the relaxed activation discipline; the store below then
    // publishes kActiveEmpty exactly as in release builds.  (A relaxed
    // load would in fact also be sound — while the slot is inactive no
    // other thread writes it, and a thread always observes its own last
    // store — but the exchange makes that reasoning unnecessary.)
    const std::uintptr_t prev =
        slot_.head.exchange(kInactive, std::memory_order_relaxed);
    assert(prev == kInactive &&
           "begin_op on a slot the previous operation left active");
#endif
    if (fences == asymfence::Path::kClassic) {
      slot_.head.store(kActiveEmpty, std::memory_order_seq_cst);
    } else {
      slot_.head.store(kActiveEmpty, std::memory_order_release);
      asymfence::light_barrier(fences);
    }
  }

  void end_op() noexcept {
    const std::uintptr_t prev =
        slot_.head.exchange(kInactive, std::memory_order_acq_rel);
    drain(prev);
  }

  // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
  template <class Src, class P = typename Src::value_type>
  P protect(const Src& src, unsigned /*idx*/) noexcept {
    P v = src.load(std::memory_order_acquire);
    ReclaimNode* n = smr_raw(v);
    if (n != nullptr && birth_era_of(n) > era_local_) {
      // The node is younger than our reservation: its batch may skip our
      // slot, so dereferencing it would be unsafe.  Refresh the
      // reservation and make the data structure restart from an anchor.
      end_op();
      begin_op();
      restart_ = true;
    }
    return v;
  }

  template <class T>
  void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
  void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}

  bool op_valid() const noexcept { return !restart_; }
  void revalidate_op() noexcept { restart_ = false; }

  void retire(ReclaimNode* n) {
    n->debug_state = kNodeRetired;
    n->retire_era = dom_->clock_.load(std::memory_order_acquire);
    n->batch = nullptr;
    push_to_batch(n);
    if (!dom_->bg_.is_active() && adopt_all_mailboxes() > 0) {
      obs::count(stats_, obs::Counter::kOrphanAdoptions);
      obs::trace_instant(obs::TraceKind::kAdopt);
    }
    bump(retired, 1);
    obs::peak(stats_, batch_count_);
    era_tick();
    if (batch_count_ >= required_batch()) {
      if (dom_->bg_.is_active()) {
        // Donate the accumulated batch whole; the service thread splices
        // it into its own batch and runs the seal (with its single heavy
        // barrier) off the operation path.
        donate_batch(dom_->bg_.mailbox);
        dom_->bg_.thread.ring();
        obs::count(stats_, obs::Counter::kBgBatchesDonated);
      } else {
        seal_batch();
      }
    }
  }

  std::uint64_t on_alloc_era() noexcept {
    era_tick();
    return dom_->clock_.load(std::memory_order_acquire);
  }

  // Test hooks.
  unsigned pending_batch_size() const noexcept { return batch_count_; }
  std::uint64_t reservation_era() const noexcept { return era_local_; }

  // --- background-reclaimer hooks (service thread only; DESIGN.md §9) ---
  void bg_collect() { adopt_all_mailboxes(); }
  // Seals only when the spliced batch has enough member nodes for every
  // registry record; a short batch keeps accumulating until the next
  // round's adoptions top it up.
  bool bg_reclaim() {
    if (batch_count_ == 0 || batch_count_ < required_batch()) return false;
    seal_batch();
    return true;
  }

  // --- DomainCore hooks ----------------------------------------------------
  // The slot must be inactive and drained.  Only the private, unsealed
  // batch needs a new owner; it is donated whole.
  void on_leave() {
    assert(slot_.head.load(std::memory_order_relaxed) == kInactive &&
           "leave() with an operation in flight");
    if (batch_count_ == 0) return;
    if (dom_->bg_.is_active()) {
      donate_batch(dom_->bg_.mailbox);
      dom_->bg_.thread.ring();
    } else {
      donate_batch(dom_->orphans_);
    }
    obs::count(stats_, obs::Counter::kOrphanDonations);
  }
  ReclaimNode* take_retired() noexcept {
    ReclaimNode* n = batch_head_;
    reset_batch();
    return n;
  }

 private:
  struct BatchHandle {
    std::atomic<std::int64_t> refs{0};
    ReclaimNode* first = nullptr;
    unsigned count = 0;
  };

  static constexpr std::uintptr_t kActiveEmpty = 0;
  static constexpr std::uintptr_t kInactive = 1;
  static constexpr std::int64_t kGuard = std::int64_t{1} << 62;

  void push_to_batch(ReclaimNode* n) noexcept {
    const std::uint64_t birth = birth_era_of(n);
    if (batch_count_ == 0 || birth < batch_min_birth_)
      batch_min_birth_ = birth;
    n->smr_next = batch_head_;
    if (batch_head_ == nullptr) batch_tail_ = n;
    batch_head_ = n;
    ++batch_count_;
  }

  void reset_batch() noexcept {
    batch_head_ = nullptr;
    batch_tail_ = nullptr;
    batch_count_ = 0;
    batch_min_birth_ = 0;
  }

  void donate_batch(RetireMailbox& mailbox) noexcept {
    mailbox.donate(batch_head_, batch_tail_);
    reset_batch();
  }

  // Splices every donated retire (departed threads' unsealed batches and
  // anything parked in the background mailbox) into this thread's batch,
  // restoring the min-birth bound.  Returns the number of nodes adopted
  // (0 = both mailboxes were raced empty).
  unsigned adopt_all_mailboxes() noexcept {
    unsigned adopted = 0;
    adopted += splice_mailbox(dom_->orphans_);
    adopted += splice_mailbox(dom_->bg_.mailbox);
    return adopted;
  }

  unsigned splice_mailbox(RetireMailbox& mailbox) noexcept {
    if (mailbox.empty()) return 0;
    ReclaimNode* n = mailbox.take_all();
    unsigned adopted = 0;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      push_to_batch(n);
      ++adopted;
      n = next;
    }
    return adopted;
  }

  // A batch needs one member node per live registry record (each
  // insertion consumes a distinct node as the list entry) plus one, so
  // the threshold adapts to membership: total_records() is incremented
  // before a record is published, so this bound can only over-estimate,
  // never under-estimate, the chain seal_batch() will walk.  The floor is
  // the effective background threshold (initialized to the batch capacity
  // and retuned by the adaptive controller; the registry term keeps it
  // correct regardless of how far the controller lowers it).
  unsigned required_batch() const noexcept {
    const auto total =
        static_cast<unsigned>(dom_->registry_.total_records());
    return std::max(dom_->bg_.effective_scan_threshold(), total + 1);
  }

  // Hands the accumulated batch to all active, era-overlapping slots.
  // The batch seal is Hyaline's reclaim cadence, so it carries the kScans
  // counter and the scan-latency histogram (nodes are counted as
  // reclaimed later, in free_batch, when the last reference drops).
  void seal_batch() {
    obs::TraceSpan span(obs::TraceKind::kSeal);
    const std::uint64_t stats_t0 = obs::scan_begin(stats_);
    // Surface in-flight activations before reading the slots: every node
    // in this batch was unlinked before it was retired, so an activation
    // the barrier does not surface belongs to a thread whose shared
    // loads are all ordered after those unlinks — it cannot reach any
    // node of this batch, and skipping its slot is safe (DESIGN.md §5).
    scan_barrier();
    // Snapshot the registry AFTER the barrier.  Records pushed after
    // this read are skippable by the same argument as an un-surfaced
    // activation; records in the snapshot cover every thread that could
    // hold a reference into this batch (DESIGN.md §7).
    auto* snap = dom_->registry_.head();
    unsigned len = 0;
    for (auto* r = snap; r != nullptr; r = r->next_record()) ++len;
    if (batch_count_ < len + 1) {
      // The registry grew between the threshold check and the snapshot:
      // not enough member nodes to give every slot a distinct entry.
      // Keep accumulating; the next retire re-checks against the larger
      // required_batch().
      obs::scan_end(stats_, stats_t0);
      return;
    }
    auto* bh = new BatchHandle;
    bh->refs.store(kGuard, std::memory_order_relaxed);
    bh->first = batch_head_;
    bh->count = batch_count_;
    for (ReclaimNode* n = batch_head_; n != nullptr; n = n->smr_next)
      n->batch = bh;

    std::int64_t inserted = 0;
    ReclaimNode* entry = batch_head_;
    for (auto* r = snap; r != nullptr && entry != nullptr;
         r = r->next_record()) {
      auto& slot = r->handle.slot_;
      std::uintptr_t h = slot.head.load(std::memory_order_acquire);
      for (;;) {
        if (h == kInactive) break;
        if (slot.era.load(std::memory_order_acquire) < batch_min_birth_) {
          // 1S filter: the slot's thread entered before any node in this
          // batch was born; it would have restarted rather than hold a
          // reference into the batch.
          break;
        }
        entry->slot_next = reinterpret_cast<ReclaimNode*>(h);
        if (slot.head.compare_exchange_weak(
                h, reinterpret_cast<std::uintptr_t>(entry),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          ++inserted;
          entry = entry->smr_next;  // consume one member node per slot
          break;
        }
      }
    }
    reset_batch();
    obs::scan_end(stats_, stats_t0);
    adjust(bh, inserted - kGuard);
  }

  void drain(std::uintptr_t list) noexcept {
    auto* e = reinterpret_cast<ReclaimNode*>(list);
    assert(list != kInactive);
    while (e != nullptr) {
      ReclaimNode* next = e->slot_next;  // read before the batch can die
      adjust(static_cast<BatchHandle*>(e->batch), -1);
      e = next;
    }
  }

  void adjust(BatchHandle* bh, std::int64_t delta) noexcept {
    if (bh->refs.fetch_add(delta, std::memory_order_acq_rel) + delta == 0)
      free_batch(bh);
  }

  void free_batch(BatchHandle* bh) noexcept {
    std::uint64_t freed = 0;
    ReclaimNode* n = bh->first;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      dom_->pool().free(tid_, n, n->alloc_size);
      ++freed;
      n = next;
    }
    assert(freed == bh->count);
    // Charged to the handle that dropped the last reference ("reclamation
    // by any thread"), which is always the calling thread — single-writer.
    bump(reclaimed, freed);
    delete bh;
  }

  struct SlotData {
    std::atomic<std::uintptr_t> head{kInactive};
    std::atomic<std::uint64_t> era{0};
  };

  // Reservation slot (the record's alignment isolates it from other
  // threads' lines).
  SlotData slot_;
  std::uint64_t era_local_ = 0;
  bool restart_ = false;
  ReclaimNode* batch_head_ = nullptr;
  ReclaimNode* batch_tail_ = nullptr;
  unsigned batch_count_ = 0;
  std::uint64_t batch_min_birth_ = 0;
};

}  // namespace scot
