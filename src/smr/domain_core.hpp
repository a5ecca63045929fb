// DomainCore: everything a reclamation domain does the same way in every
// scheme (DESIGN.md §7, "Adding a scheme").
//
// A scheme is two classes: a domain deriving from DomainCore<Domain,
// Handle>, and its per-thread Handle deriving from HandleCore (or from
// LimboHandle for the limbo-list schemes; smr/handle_core.hpp).  The core
// owns membership (the handle registry, join/leave), the node pool, the
// era clock, the fence discipline, the domain-wide counters and telemetry,
// and the background reclaimer's lifecycle.  The scheme keeps its
// reservation state and protocol — begin_op/end_op/protect/publish/dup,
// retire, scan or seal_batch — plus two handle hooks the core calls
// statically:
//
//   h.on_leave()      hand the private retire chain off before the record
//                     is released (leave(); no operation in flight);
//   h.take_retired()  detach the private retire chain at teardown so the
//                     core can free it.
//
// HandleCore defaults both to no-ops.  A domain may also hide the static
// reclaim_threshold(cfg): the initial reclaim cadence the adaptive
// controller tunes (Hyaline's is its batch size).
//
// Handle is a separate template parameter because Derived::Handle is still
// incomplete while this base is instantiated; nothing in the class body
// needs it complete.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/align.hpp"
#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/handle_core.hpp"
#include "smr/handle_registry.hpp"
#include "smr/node_pool.hpp"
#include "smr/reclaimer.hpp"
#include "smr/smr_config.hpp"

namespace scot {

template <class Derived, class Handle>
class DomainCore {
 public:
  // Throws std::invalid_argument unless cfg.slots_per_thread is in
  // [1, 32]: the slot schemes track used slots in a 32-bit mask.
  explicit DomainCore(SmrConfig cfg = {})
      : cfg_(validated(cfg)),
        pool_(cfg.max_threads),
        fence_path_(asymfence::resolve(cfg.asymmetric_fences)) {
    bg_.scan_threshold.store(Derived::reclaim_threshold(cfg_),
                             std::memory_order_relaxed);
    bg_.era_freq.store(cfg_.era_freq, std::memory_order_relaxed);
    if (cfg_.background_reclaim) start_background_reclaimer();
  }

  ~DomainCore() {
    stop_background_reclaimer();
    drain_all();
  }

  DomainCore(const DomainCore&) = delete;
  DomainCore& operator=(const DomainCore&) = delete;

  // --- dynamic membership (DESIGN.md §7) ----------------------------------
  // Claims a per-thread handle; the returned reference stays valid until
  // the matching leave().  Lock-free (one CAS on the re-join fast path).
  // The record index names the handle's pool shard and is its tid().
  Handle& join() {
    auto* rec = registry_.acquire(
        [this](unsigned idx) { return Handle(&derived(), idx); });
    rec->handle.registry_record_ = rec;
    pool_.ensure_shards(rec->index + 1);
    obs::count(rec->handle.stats_, obs::Counter::kJoins);
    obs::trace_instant(obs::TraceKind::kJoin);
    return rec->handle;
  }

  // Contract: no operation in flight.  The scheme's on_leave() hands the
  // private retire chain off, then the record is released for reuse.
  void leave(Handle& h) {
    h.on_leave();
    obs::count(h.stats_, obs::Counter::kLeaves);
    obs::trace_instant(obs::TraceKind::kLeave);
    registry_.release(record_of(h));
  }

  unsigned active_handles() const noexcept { return registry_.active(); }
  std::size_t total_handle_records() const noexcept {
    return registry_.total_records();
  }
  const HandleRegistry<Handle>& registry() const noexcept { return registry_; }

  // Table 2 telemetry, summed over every record ever created (the ds_*
  // counters are cumulative across join/leave reuse).
  std::uint64_t restarts() const noexcept {
    return sum_records(&Handle::ds_restarts);
  }
  std::uint64_t recoveries() const noexcept {
    return sum_records(&Handle::ds_recoveries);
  }

  // --- background reclamation (smr/reclaimer.hpp, DESIGN.md §9) -----------
  // Schemes whose handles cannot be driven by the service thread (NR) keep
  // an inert surface: start/stop are accepted and ignored.
  ReclaimControl& reclaim_control() noexcept { return bg_; }
  bool background_active() const noexcept { return bg_.is_active(); }
  BgReclaimStats background_stats() const noexcept { return bg_stats_of(bg_); }
  bool counts_heavy_barrier_per_reclaim() const noexcept {
    return fence_path_ != asymfence::Path::kClassic;
  }

  // Launches the service thread (no-op when already running).  Not
  // thread-safe against a concurrent start/stop — one controller thread,
  // the same contract as domain construction; safe against concurrent
  // mutator operations.
  void start_background_reclaimer() {
    if constexpr (BackgroundReclaimable<Handle>) {
      if (bg_.thread.running()) return;
      if (!reclaimer_)
        reclaimer_ = std::make_unique<DomainReclaimer<Derived>>(derived());
      bg_.active.store(true, std::memory_order_release);
      bg_.thread.start(cfg_.reclaim_interval_us,
                       [this] { reclaimer_->round(); });
    }
  }

  // Stops and joins the service thread, runs a final synchronous drain and
  // releases the reclaimer's handle.  Mutators revert to inline scanning
  // and re-adopt anything still parked in the background mailbox.
  void stop_background_reclaimer() {
    if constexpr (BackgroundReclaimable<Handle>) {
      bg_.active.store(false, std::memory_order_release);
      bg_.thread.stop();
      if (reclaimer_) {
        reclaimer_->detach();
        reclaimer_.reset();
      }
    }
  }

  const SmrConfig& config() const noexcept { return cfg_; }
  NodePool& pool() noexcept { return pool_; }
  std::int64_t pending_nodes() const noexcept {
    return counters_.pending.load(std::memory_order_relaxed);
  }
  const SmrCounters& counters() const noexcept { return counters_; }
  asymfence::Path fence_path() const noexcept { return fence_path_; }

  // Observability (DESIGN.md §8): the per-handle cell list and the
  // aggregated snapshot.
  obs::DomainStats& obs_stats() noexcept { return stats_obs_; }
  obs::StatsSnapshot stats() const {
    obs::StatsSnapshot s = stats_obs_.snapshot();
    s.enabled = SCOT_STATS != 0 && cfg_.track_stats;
    s.pending = pending_nodes();
    s.retired_total = counters_.retired.load(std::memory_order_relaxed);
    s.reclaimed_total = counters_.reclaimed.load(std::memory_order_relaxed);
    return s;
  }

  // Default reclaim cadence: the limbo scan threshold.
  static unsigned reclaim_threshold(const SmrConfig& cfg) noexcept {
    return cfg.scan_threshold;
  }

 protected:
  SmrConfig cfg_;
  NodePool pool_;
  asymfence::Path fence_path_;
  std::atomic<std::uint64_t> clock_{1};
  // Declared before the registry: handles hold raw cell pointers, so the
  // cell list must be destroyed after the records are.
  obs::DomainStats stats_obs_;
  HandleRegistry<Handle> registry_;
  RetireMailbox orphans_;  // leave() donations, adopted by the next retirer
  ReclaimControl bg_;
  std::unique_ptr<DomainReclaimer<Derived>> reclaimer_;
  // Written by every retire and scan, so it gets a false-sharing range of
  // its own at the end of the object, away from everything the protect,
  // begin_op and retire paths read.
  alignas(kFalseSharingRange) SmrCounters counters_;

 private:
  // The handle layers reach the shared state above directly.
  friend Handle;
  friend class HandleCore<Derived, Handle>;
  friend class LimboHandle<Derived, Handle>;

  using Record = typename HandleRegistry<Handle>::Record;
  static Record* record_of(Handle& h) noexcept {
    return static_cast<Record*>(h.registry_record_);
  }

  static SmrConfig validated(const SmrConfig& cfg) {
    if (cfg.slots_per_thread < 1 || cfg.slots_per_thread > 32)
      throw std::invalid_argument(
          "scot: SmrConfig::slots_per_thread must be in [1, 32]");
    return cfg;
  }

  Derived& derived() noexcept { return static_cast<Derived&>(*this); }

  template <class Field>
  std::uint64_t sum_records(Field field) const noexcept {
    std::uint64_t n = 0;
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      n += r->handle.*field;
    return n;
  }

  std::uint64_t free_chain(ReclaimNode* n, unsigned shard) noexcept {
    std::uint64_t freed = 0;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      pool_.free(shard, n, n->alloc_size);
      ++freed;
      n = next;
    }
    return freed;
  }

  // Destructor-time cleanup: no threads are active, free everything —
  // every record's private chain plus both mailboxes.
  void drain_all() {
    std::uint64_t freed = 0;
    for (auto* r = registry_.head(); r != nullptr; r = r->next_record())
      freed += free_chain(r->handle.take_retired(), r->index);
    freed += free_chain(orphans_.take_all(), 0);
    freed += free_chain(bg_.mailbox.take_all(), 0);
    counters_.on_free(freed, cfg_.track_stats);
  }
};

}  // namespace scot
