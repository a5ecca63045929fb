// Hyaline-1S (Nikolaev & Ravindran, PLDI 2021): snapshot-free robust
// reclamation with distributed reference counting.
//
// Mechanics reproduced here:
//  * One reservation *slot* per handle: { head of a retirement list, era }.
//    enter() publishes the current era and activates the slot; leave()
//    detaches the slot's accumulated list and decrements the reference
//    count of every batch that appears on it.
//  * retire() accumulates nodes into a per-thread *batch*: the limbo list
//    of the shared retire path (LimboHandle), so the threshold check,
//    mailbox adoption, donation and the background hooks are the limbo
//    schemes' own.  A full batch is sealed by scan() and handed to every
//    active slot whose era could allow the owning thread to hold a
//    reference (slot era >= batch min birth era — the "1S" filter; the
//    minimum is kept as nodes join the batch, adopted nodes included, so
//    the seal walks no chain).
//    The paper links a distinct member node into each slot, so its batch
//    needs a node per slot; here the batch handle carries one
//    {slot_next, batch} entry per record of the registry snapshot and the
//    slot lists link those, so a batch of any size covers any number of
//    slots and the nodes keep no Hyaline words.
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
// The reservation slot lives inside the Handle and the seal walks the live
// registry.  leave() donates the unsealed batch to the domain's retire
// mailbox without sealing it — the natural Hyaline handoff, since sealed
// batches are already owned by "whoever drops the last reference".
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

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
  // The configured batch size (the adaptive controller may lower the
  // effective one).
  unsigned batch_capacity() const noexcept { return reclaim_threshold(cfg_); }

  // DomainCore hook: Hyaline's reclaim cadence is the batch size, so that
  // is what the adaptive controller tunes (era_freq rides along for the
  // clock rate).  0 = auto: max_threads + 1, the paper's batch size.  Slot
  // entries live in the batch handle, so any size is safe; this only sets
  // how often a seal (and its heavy barrier) runs.
  static unsigned reclaim_threshold(const SmrConfig& cfg) noexcept {
    return cfg.batch_capacity != 0 ? cfg.batch_capacity : cfg.max_threads + 1;
  }
};

class HyalineHandle : public LimboHandle<HyalineDomain, HyalineHandle> {
 public:
  static constexpr obs::TraceKind kRoundTrace = obs::TraceKind::kSeal;

  using LimboHandle::LimboHandle;

  void begin_op() noexcept {
    era_local_ = dom_->clock_.load(std::memory_order_acquire);
    slot_.era.store(era_local_, std::memory_order_release);
    // Activation must be visible to retirers before this operation
    // performs any shared loads (StoreLoad): asymfence::publish of the
    // head, whose edge on the membarrier path is the one heavy barrier
    // the seal issues before reading the slots (DESIGN.md §5,
    // activation case).  The era store above is release-ordered before
    // the head store, so a retirer that sees the slot active also sees an
    // era at least as new as era_local_.
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
    asymfence::publish(slot_.head, kActiveEmpty, fences_);
  }

  void end_op() noexcept {
    const std::uintptr_t prev =
        slot_.head.exchange(kInactive, std::memory_order_acq_rel);
    drain(prev);
  }

  // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
  template <class Src, class P = typename Src::value_type>
  [[gnu::always_inline]] P protect(const Src& src, unsigned) noexcept {
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

  // Hyaline stamps no retire era (the 1S filter compares birth eras), but
  // its clock ticks on retire as well as on alloc.
  void on_retire(ReclaimNode* n) noexcept { note_birth(n); era_tick(); }
  void on_adopt(ReclaimNode* n) noexcept { note_birth(n); }

  std::uint64_t on_alloc_era() noexcept {
    era_tick();
    return dom_->clock_.load(std::memory_order_acquire);
  }

  // Test hooks.
  unsigned pending_batch_size() const noexcept { return limbo_.count; }
  std::uint64_t reservation_era() const noexcept { return era_local_; }

  // Seals only a full batch; a short one waits for the next round's adoptions.
  bool bg_reclaim() {
    if (limbo_.count < dom_->bg_.effective_scan_threshold()) return false;
    return LimboHandle::bg_reclaim();
  }

  // Donates the open batch unsealed; sealed ones belong to their last reader.
  void on_leave() {
    assert(slot_.head.load(std::memory_order_relaxed) == kInactive &&
           "leave() with an operation in flight");
    donate_orphans();
  }

 private:
  friend LimboHandle;

  struct BatchHandle;
  // A batch's link in one reservation slot's retirement list.  Owned by
  // the batch handle, so it dies with the batch.
  struct SlotEntry {
    SlotEntry* slot_next;
    BatchHandle* batch;
  };
  struct BatchHandle {
    std::atomic<std::int64_t> refs{0};
    ReclaimNode* first = nullptr;
    unsigned count = 0;
    std::unique_ptr<SlotEntry[]> entries;  // one per snapshotted record
  };

  static constexpr std::uintptr_t kActiveEmpty = 0;
  static constexpr std::uintptr_t kInactive = 1;
  static constexpr std::int64_t kGuard = std::int64_t{1} << 62;

  // scan()'s body, the batch seal: hands the limbo chain, as one batch, to
  // all active, era-overlapping slots.  The seal is Hyaline's reclaim
  // round, so it carries the kScans counter and the scan-latency histogram.
  // Nodes are counted as reclaimed in free_batch, when the last reference
  // drops: here only if no slot took the batch, else in some end_op.
  void reclaim_limbo() {
    // Snapshot the registry after scan()'s barrier.  Records pushed after
    // this read are skippable by the same argument as an un-surfaced
    // activation; records in the snapshot cover every thread that could
    // hold a reference into this batch (DESIGN.md §7).
    auto* snap = dom_->registry_.head();
    unsigned len = 0;
    for (auto* r = snap; r != nullptr; r = r->next_record()) ++len;
    auto* bh = new BatchHandle;
    bh->refs.store(kGuard, std::memory_order_relaxed);
    bh->count = limbo_.count;
    bh->first = limbo_.take();
    bh->entries.reset(new SlotEntry[len]);

    std::int64_t inserted = 0;
    for (auto* r = snap; r != nullptr; r = r->next_record()) {
      auto& slot = r->handle.slot_;
      std::uintptr_t h = slot.head.load(std::memory_order_acquire);
      for (;;) {
        if (h == kInactive) break;
        if (slot.era.load(std::memory_order_acquire) < min_birth_) {
          // 1S filter: the slot's thread entered before any node in this
          // batch was born; it would have restarted rather than hold a
          // reference into the batch.
          break;
        }
        SlotEntry& e = bh->entries[inserted];
        e.slot_next = reinterpret_cast<SlotEntry*>(h);
        e.batch = bh;
        if (slot.head.compare_exchange_weak(
                h, reinterpret_cast<std::uintptr_t>(&e),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          ++inserted;
          break;
        }
      }
    }
    adjust(bh, inserted - kGuard);
  }

  // Folds a node joining the limbo list into min_birth_, the 1S filter's
  // bound: the oldest birth era in the chain, read while the node is hot.
  // Called before the push, so the first node after any take (seal,
  // donation, teardown) restarts the minimum.  Only a bound too high is
  // unsafe (a slot that may hold a reference would be skipped); one too
  // low merely hands the batch to more slots.
  void note_birth(const ReclaimNode* n) noexcept {
    const std::uint64_t b = birth_era_of(n);
    min_birth_ = limbo_.count == 0 ? b : std::min(min_birth_, b);
  }

  void drain(std::uintptr_t list) noexcept {
    auto* e = reinterpret_cast<SlotEntry*>(list);
    assert(list != kInactive);
    while (e != nullptr) {
      SlotEntry* next = e->slot_next;  // read before the batch (and e) die
      adjust(e->batch, -1);
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
      dom_->pool().free(tid_, n, header_of(n)->alloc_size);
      ++freed;
      n = next;
    }
    assert(freed == bh->count);
    // Charged to the handle that dropped the last reference ("reclamation
    // by any thread"), which is always the calling thread — single-writer.
    bump(reclaimed, freed);
    delete bh;
  }

  // Aligned and sized to whole false-sharing ranges: remote retirers
  // exchange `head`, so the owner's own fields must not share its line.
  struct alignas(kFalseSharingRange) SlotData {
    std::atomic<std::uintptr_t> head{kInactive};
    std::atomic<std::uint64_t> era{0};
  };

  // Reservation slot, isolated from every other field by its type.
  SlotData slot_;
  std::uint64_t era_local_ = 0;
  std::uint64_t min_birth_ = 0;  // valid while limbo_ is non-empty
  bool restart_ = false;
};

}  // namespace scot
