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
#include "obs/stats.hpp"
#include "obs/trace.hpp"
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
  static constexpr bool kRetireEras = true;
  static constexpr std::uint64_t kIdle = IbrDomain::kIdle;

  using LimboHandle::LimboHandle;

  void begin_op() noexcept {
    // Activation publishes the interval: `lower` first (release), then
    // `upper`, whose store carries the StoreLoad edge against this
    // operation's shared loads.  Classic: seq_cst.  Asymmetric: release +
    // compiler barrier, compensated by the heavy barrier scans issue
    // before collect_intervals() (DESIGN.md §5, activation case).  Both
    // eras come from the clock value loaded first, so the published
    // interval can never lag the era this operation validates against.
    const std::uint64_t e = dom_->clock_.load(std::memory_order_acquire);
    upper_cache_ = e;
    res_lower_.store(e, std::memory_order_release);
    const asymfence::Path fences = dom_->fence_path_;
    if (fences == asymfence::Path::kClassic) {
      res_upper_.store(e, std::memory_order_seq_cst);
    } else {
      res_upper_.store(e, std::memory_order_release);
      asymfence::light_barrier(fences);
    }
  }

  void end_op() noexcept {
    res_upper_.store(kIdle, std::memory_order_release);
    res_lower_.store(kIdle, std::memory_order_release);
  }

  // The common case (era unchanged since the last bump) is fence-free
  // either way; the asymmetric discipline relaxes the `upper` bump, whose
  // StoreLoad edge against the loop's re-read is restored by the heavy
  // barrier scans issue before collect_intervals() (DESIGN.md §5).
  // `Src` is std::atomic<P> or StableAtomic<P>.
  template <class Src, class P = typename Src::value_type>
  P protect(const Src& src, unsigned /*idx*/) noexcept {
    const asymfence::Path fences = dom_->fence_path_;
    for (;;) {
      P v = src.load(std::memory_order_acquire);
      const std::uint64_t e = dom_->clock_.load(std::memory_order_seq_cst);
      if (e == upper_cache_) return v;
      if (fences == asymfence::Path::kClassic) {
        res_upper_.store(e, std::memory_order_seq_cst);
      } else {
        res_upper_.store(e, std::memory_order_release);
        asymfence::light_barrier(fences);
      }
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

  void scan() {
    obs::TraceSpan span(obs::TraceKind::kScan);
    const std::uint64_t stats_t0 = obs::scan_begin(stats_);
    // Heavy barrier before the snapshot; the registry head is read after
    // it, so records of late-joining threads are covered by the same
    // argument (DESIGN.md §7).
    scan_barrier();
    snapshot_.clear();
    dom_->collect_intervals(snapshot_);
    free_unreserved([&](ReclaimNode* n) {
      return lifetime_reserved(birth_era_of(n), n->retire_era);
    });
    obs::scan_end(stats_, stats_t0);
  }

  // DomainCore hook: the interval must be idle.
  void on_leave() {
    assert(res_upper_.load(std::memory_order_relaxed) == kIdle &&
           "leave() with an operation in flight");
    LimboHandle::on_leave();
  }

 private:
  friend class IbrDomain;

  bool lifetime_reserved(std::uint64_t birth,
                         std::uint64_t retire) noexcept {
    for (std::size_t i = 0; i < snapshot_.size(); ++i) {
      const auto& [lo, hi] = snapshot_[i];
      if (birth <= hi && retire >= lo) return true;
    }
    return false;
  }

  // Published interval (the record's alignment isolates it).
  std::atomic<std::uint64_t> res_lower_{kIdle};
  std::atomic<std::uint64_t> res_upper_{kIdle};
  std::uint64_t upper_cache_ = kIdle;
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
