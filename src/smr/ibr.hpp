// IBR: interval-based reclamation (Wen et al., PPoPP 2018), 2GE variant,
// with the reservation-snapshot scan optimization from the paper.
//
// Each thread publishes one *interval* [lower, upper] instead of per-index
// eras: `lower` is the era at operation start, `upper` is bumped lazily by
// protect() whenever the global era has advanced.  A retired node is
// reclaimable once its lifetime [birth, retire] overlaps no thread's
// interval.  Because protection is not indexed, dup() is a no-op — this is
// the "simplified programming model" the paper credits IBR with.
//
// Ordering note: begin_op stores `lower` (release) before `upper`.  A
// reclaimer snapshots `upper` first and `lower` second; if it observes the
// new upper it is guaranteed to observe the new lower.  A torn pair with a
// stale *lower* maps kIdle to 0 and widens conservatively; a torn pair
// with a stale *upper* yields an empty interval, which is safe not by
// widening but by the fence discipline: an `upper` publication the
// reclaimer cannot see means the operation's shared loads are all ordered
// after the scan's barrier, so it cannot reach the nodes being freed
// (DESIGN.md §5, IBR tear note).
//
// The interval lives inside the Handle and scans walk the live registry;
// membership, retire and the leave() handoff come from
// DomainCore/LimboHandle.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/asymfence.hpp"
#include "common/chunked_list.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class IbrHandle;

class IbrDomain : public DomainCore<IbrDomain, IbrHandle> {
 public:
  static constexpr const char* kName = "IBR";
  static constexpr bool kRobust = true;
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  using Handle = IbrHandle;

  using DomainCore::DomainCore;

  std::uint64_t era() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  // Walks the live registry; records of departed threads hold idle
  // intervals.  `Out` is any push_back-able container of
  // pair<uint64_t, uint64_t>.
  template <class Out>
  void collect_intervals(Out& out) const;
};

class IbrHandle : public LimboHandle<IbrDomain, IbrHandle> {
 public:
  static constexpr std::uint64_t kIdle = IbrDomain::kIdle;

  using LimboHandle::LimboHandle;

  void begin_op() noexcept {
    // Activation publishes the interval: `lower` first (release), then
    // `upper`, whose asymfence::publish carries the StoreLoad edge against
    // this operation's shared loads; on the membarrier path the heavy
    // barrier scans issue before collect_intervals() supplies it
    // (DESIGN.md §5, activation case).  Both eras come from the clock
    // value loaded first, so the published interval can never lag the era
    // this operation validates against.
    const std::uint64_t e = dom_->clock_.load(std::memory_order_acquire);
    upper_cache_ = e;
    res_lower_.store(e, std::memory_order_release);
    asymfence::publish(res_upper_, e, fences_);
  }

  void end_op() noexcept {
    res_upper_.store(kIdle, std::memory_order_release);
    res_lower_.store(kIdle, std::memory_order_release);
  }

  // The common case (era unchanged since the last bump) is fence-free
  // under both disciplines; only the `upper` bump publishes, and on the
  // membarrier path its StoreLoad edge against the loop's re-read is
  // restored by the heavy barrier scans issue before collect_intervals()
  // (DESIGN.md §5).  `Src` is std::atomic<P> or StableAtomic<P>.
  template <class Src, class P = typename Src::value_type>
  [[gnu::always_inline]] P protect(const Src& src, unsigned) noexcept {
    const asymfence::Path fences = fences_;
    for (;;) {
      P v = src.load(std::memory_order_acquire);
      const std::uint64_t e = dom_->clock_.load(std::memory_order_seq_cst);
      if (e == upper_cache_) return v;
      asymfence::publish(res_upper_, e, fences);
      upper_cache_ = e;
    }
  }

  template <class T>
  void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
  void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}
  static constexpr bool op_valid() noexcept { return true; }
  void revalidate_op() noexcept {}

  std::uint64_t on_alloc_era() noexcept {
    era_tick();
    return dom_->clock_.load(std::memory_order_acquire);
  }

  // DomainCore hook: the interval must be idle.
  void on_leave() {
    assert(res_upper_.load(std::memory_order_relaxed) == kIdle &&
           "leave() with an operation in flight");
    LimboHandle::on_leave();
  }

 private:
  friend class IbrDomain;
  friend LimboHandle;

  // scan()'s body: frees every limbo node whose lifetime no published
  // interval overlaps.
  void reclaim_limbo() {
    snapshot_.clear();
    dom_->collect_intervals(snapshot_);
    free_unreserved([&](ReclaimNode* n) {
      return lifetime_reserved(birth_era_of(n), n->retire_era);
    });
  }

  bool lifetime_reserved(std::uint64_t birth,
                         std::uint64_t retire) noexcept {
    for (std::size_t i = 0; i < snapshot_.size(); ++i) {
      const auto& [lo, hi] = snapshot_[i];
      if (birth <= hi && retire >= lo) return true;
    }
    return false;
  }

  // Published interval, alone in its own false-sharing range (alignas here
  // and on the next member), so no owner-written field shares its line.
  alignas(kFalseSharingRange) std::atomic<std::uint64_t> res_lower_{kIdle};
  std::atomic<std::uint64_t> res_upper_{kIdle};
  alignas(kFalseSharingRange) std::uint64_t upper_cache_ = kIdle;
  // Scan scratch, reused across scans; grows with the registry.
  ChunkedList<std::pair<std::uint64_t, std::uint64_t>> snapshot_;
};

template <class Out>
void IbrDomain::collect_intervals(Out& out) const {
  for (const auto* r = registry_.head(); r != nullptr; r = r->next_record()) {
    // upper first, then lower (see the ordering note above).
    const std::uint64_t hi =
        r->handle.res_upper_.load(std::memory_order_acquire);
    const std::uint64_t lo =
        r->handle.res_lower_.load(std::memory_order_acquire);
    if (lo == kIdle && hi == kIdle) continue;
    // kIdle halves of a torn observation widen conservatively; a
    // stale-upper tear can produce an empty interval, covered by the
    // scan barrier instead (see the ordering note at the top).
    out.push_back({lo == kIdle ? 0 : lo, hi == kIdle ? ~std::uint64_t{0} : hi});
  }
}

}  // namespace scot
