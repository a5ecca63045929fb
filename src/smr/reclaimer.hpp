// Background reclaimer: per-domain service thread + adaptive thresholds
// (DESIGN.md §9).
//
// With `SmrConfig::background_reclaim` on, a domain runs one standing
// service thread and the mutator-side reclamation duties invert:
//
//  * retire() stays "append to the private limbo list", but on reaching the
//    effective scan threshold the mutator donates the WHOLE chain to the
//    domain's `ReclaimControl::mailbox` (one CAS — the RetireMailbox
//    machinery the orphan handoff already proved out) and rings the
//    reclaimer's doorbell.  No scan, no reservation snapshot, and — the
//    point of the exercise — no process-wide heavy barrier on any mutator.
//
//  * The service thread runs rounds: adopt every donated chain (plus any
//    orphans), then run the scheme's ONE existing scan/seal entry point,
//    which issues exactly one `asymfence::heavy_barrier()` for the whole
//    adopted backlog.  The IPI the PR 5 asymmetric-fence discipline pays per
//    scanning mutator is thereby amortized across every thread's batches.
//    Inline and background reclamation share the same scan()/seal_batch()
//    implementation — the reclaimer is just another registered handle, so
//    snapshot scratch, pool shard and stats cell all come for free.
//
//  * The service thread also owns adaptive control: when the domain is
//    configured with a `memory_target`, each round compares the pending-node
//    gauge against it and halves the effective scan_threshold/era_freq while
//    over target (floors apply), relaxing back toward the configured values
//    once pending drops below half the target.  Mutators read the effective
//    values with relaxed loads — staleness costs one round of lag, nothing
//    more.
//
// Lifecycle (first standing service thread in the codebase):
//  * start: the constructing (or calling) thread joins the reclaimer's
//    handle into the domain registry, publishes `active`, then launches the
//    thread.  start/stop are NOT thread-safe against each other — one
//    controller at a time, same contract as domain construction/destruction.
//  * stop: clear `active` (mutators revert to inline scanning and also
//    re-adopt anything still parked in the mailbox), join the thread, run
//    one final synchronous collect+reclaim, then leave() the handle — which
//    donates whatever is still reservation-protected to the orphan mailbox.
//    Custody is preserved at every step; nothing leaks (ASan-verified in
//    tests/smr/reclaimer_test.cpp).
//  * The domain destructor (DomainCore) calls stop before drain_all(), and
//    drain_all also empties the background mailbox — so shutdown
//    mid-donation is safe.
//  * fork() note: like any thread-owning object, the reclaimer does not
//    survive fork(); a child process must not touch a domain whose parent
//    had background reclamation running.  (No fork handlers are installed —
//    the library has no other process-global state to re-arm.)
//
// The doorbell (`ReclaimerThreadBase::ring`) is deliberately lock-free on
// the mutator side: set an atomic flag and notify only if the service
// thread is observed sleeping.  A lost wakeup is bounded by
// `reclaim_interval_us` — the thread polls at that period regardless.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <thread>

#include "obs/stats.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

// The standing thread, shorn of everything domain-specific so the blocking
// machinery lives in one TU (reclaimer.cpp) instead of every scheme header.
// Embedded by value in ReclaimControl — it must outlive any mutator that
// might still ring() it, so it shares the domain's lifetime, not the
// reclaimer session's.
class ReclaimerThreadBase {
 public:
  ReclaimerThreadBase();
  ~ReclaimerThreadBase();
  ReclaimerThreadBase(const ReclaimerThreadBase&) = delete;
  ReclaimerThreadBase& operator=(const ReclaimerThreadBase&) = delete;

  // Launches the service thread; `round` runs once per wakeup.  Must not be
  // called while running() (one controller at a time).
  void start(unsigned interval_us, std::function<void()> round);

  // Stops and joins the thread (idempotent; no-op when not running).  The
  // round callback is released before returning.
  void stop();

  // Mutator-side doorbell: request a round soon.  Lock-free and safe from
  // any thread at any time, including when the thread is not running (the
  // flag is simply consumed by the next start).
  void ring() noexcept;

  bool running() const noexcept;

 private:
  struct Impl;  // mutex/condvar live behind the TU boundary
  Impl* impl_;
  std::atomic<bool> work_{false};
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> running_{false};
};

// Per-domain shared state for the background path, embedded by value in
// DomainCore.  Mutators touch only `mailbox`, the three effective knobs and
// the doorbell.  The service thread's telemetry (rounds, adaptations, scans,
// heavy barriers) lives in its own handle's obs cell, like every handle's.
struct ReclaimControl {
  RetireMailbox mailbox;

  // Effective thresholds (initialized from SmrConfig by the domain ctor;
  // retuned by the adaptive controller).  Relaxed loads on the retire path.
  std::atomic<unsigned> scan_threshold{0};
  std::atomic<unsigned> era_freq{0};

  // True while the service thread is accepting donations.  Checked with a
  // relaxed load at every retire threshold crossing; a stale `true` after
  // stop only parks the chain in the mailbox, where the now-inline mutators
  // (and the domain destructor) re-adopt it.
  std::atomic<bool> active{false};

  ReclaimerThreadBase thread;

  bool is_active() const noexcept {
    return active.load(std::memory_order_relaxed);
  }
  unsigned effective_scan_threshold() const noexcept {
    return scan_threshold.load(std::memory_order_relaxed);
  }
  unsigned effective_era_freq() const noexcept {
    return era_freq.load(std::memory_order_relaxed);
  }
};

// A handle the service thread can drive: the two background hooks.
//   bg_collect()            adopt mailbox + orphans into own limbo/batch
//   bg_reclaim()  -> bool   run the shared scan/seal entry point if there
//                           is anything to reclaim; true if it ran
// NR's handle has neither (it never reclaims), so its domain keeps an inert
// background surface.
template <class Handle>
concept BackgroundReclaimable = requires(Handle& h) {
  h.bg_collect();
  { h.bg_reclaim() } -> std::convertible_to<bool>;
};

// The domain-typed half of the service: owns the reclaimer's registered
// handle and the round/adapt logic.  Domain is a DomainCore-derived domain
// (smr/domain_core.hpp) whose Handle is BackgroundReclaimable.  The owner
// must detach() before destroying it (DomainCore's stop does).
template <class Domain>
class DomainReclaimer {
 public:
  explicit DomainReclaimer(Domain& d)
      : dom_(d),
        h_(&d.join()),
        base_scan_threshold_(
            d.reclaim_control().effective_scan_threshold()),
        base_era_freq_(d.reclaim_control().effective_era_freq()) {}

  DomainReclaimer(const DomainReclaimer&) = delete;
  DomainReclaimer& operator=(const DomainReclaimer&) = delete;

  // One service round: adopt the backlog, reclaim it behind a single heavy
  // barrier, retune the thresholds.  Runs on the service thread only.
  void round() {
    h_->bg_collect();
    if (h_->bg_reclaim()) {
      // After freeing, push the recycled nodes back where mutators can
      // reach them — otherwise every free strands in this thread's shard.
      dom_.pool().donate_free_lists(h_->tid());
    }
    obs::count(h_->stats_, obs::Counter::kBgRounds);
    adapt(dom_.reclaim_control());
  }

  // Post-join cleanup on the controller thread: consume what the final
  // in-thread round may have missed, then hand the handle (and any nodes a
  // live reservation still protects) back to the domain.
  void detach() {
    h_->bg_collect();
    h_->bg_reclaim();
    dom_.pool().donate_free_lists(h_->tid());
    dom_.leave(*h_);
    h_ = nullptr;
  }

 private:
  // Feedback control against the pending-node gauge.  Halving pressure
  // (smaller scan batches, faster era advance) while over target converges
  // in O(log threshold) rounds; the floors keep the system out of
  // scan-per-retire thrash.  Hysteresis: relax only below target/2.
  void adapt(ReclaimControl& c) {
    const std::uint64_t target = dom_.config().memory_target;
    if (target == 0) return;
    constexpr unsigned kMinThreshold = 8;
    constexpr unsigned kMinEraFreq = 4;
    const auto pending =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, dom_.pending_nodes()));
    bool changed = false;
    unsigned st = c.scan_threshold.load(std::memory_order_relaxed);
    unsigned ef = c.era_freq.load(std::memory_order_relaxed);
    if (pending > target) {
      if (st > kMinThreshold) {
        c.scan_threshold.store(std::max(kMinThreshold, st / 2),
                               std::memory_order_relaxed);
        changed = true;
      }
      if (ef > kMinEraFreq) {
        c.era_freq.store(std::max(kMinEraFreq, ef / 2),
                         std::memory_order_relaxed);
        changed = true;
      }
    } else if (pending < target / 2) {
      if (st < base_scan_threshold_) {
        c.scan_threshold.store(std::min(base_scan_threshold_, st * 2),
                               std::memory_order_relaxed);
        changed = true;
      }
      if (ef < base_era_freq_) {
        c.era_freq.store(std::min(base_era_freq_, ef * 2),
                         std::memory_order_relaxed);
        changed = true;
      }
    }
    if (changed) obs::count(h_->stats_, obs::Counter::kBgAdaptations);
  }

  Domain& dom_;
  typename Domain::Handle* h_;
  const unsigned base_scan_threshold_;
  const unsigned base_era_freq_;
};

}  // namespace scot
