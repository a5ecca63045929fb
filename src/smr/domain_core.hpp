// DomainCore: everything a reclamation domain does the same way in every
// scheme (DESIGN.md §7, "Adding a scheme").
//
// A scheme is two classes: a domain deriving from DomainCore<Domain,
// Handle>, and its per-thread Handle deriving from LimboHandle (every
// reclaiming scheme: the one retire path; smr/handle_core.hpp) or from
// HandleCore (NR).  The core owns membership (the handle registry,
// join/leave), the node pool, the era clock, the fence discipline, the sums
// of the per-handle counts and telemetry, and the background reclaimer's
// lifecycle.  The scheme keeps its reservation state and protocol —
// begin_op/end_op/protect/publish/dup and the body of its reclaim round —
// plus two handle hooks the core calls statically:
//
//   h.on_leave()      hand the private retire chain off before the record
//                     is released (leave(); no operation in flight);
//   h.take_retired()  detach the private retire chain at teardown so the
//                     core can free it.
//
// HandleCore defaults both to no-ops and LimboHandle implements both for
// every reclaiming scheme.  A domain may also hide the static
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
  // [1, kMaxSlots]: the slot schemes hold that many slots inline and track
  // the used ones in a 32-bit mask.
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
  // and re-adopt anything still parked in the retire mailbox.
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
  // Retired-but-not-yet-freed nodes (Figures 10-12), summed from the
  // per-handle counts; never negative, exact when quiescent.
  std::int64_t pending_nodes() const noexcept {
    obs::StatsSnapshot s;
    read_totals(s);
    return s.pending;
  }
  asymfence::Path fence_path() const noexcept { return fence_path_; }

  // Observability (DESIGN.md §8): the per-handle cell list and the
  // aggregated snapshot.
  obs::DomainStats& obs_stats() noexcept { return stats_obs_; }
  obs::StatsSnapshot stats() const {
    obs::StatsSnapshot s = stats_obs_.snapshot();
    s.enabled = SCOT_STATS != 0 && cfg_.track_stats;
    read_totals(s);
    return s;
  }

  // Default reclaim cadence: the limbo scan threshold.
  static unsigned reclaim_threshold(const SmrConfig& cfg) noexcept {
    return cfg.scan_threshold;
  }

 protected:
  SmrConfig cfg_;
  NodePool pool_;
  // Resolved once here; every handle copies it when it is constructed.
  const asymfence::Path fence_path_;
  std::atomic<std::uint64_t> clock_{1};
  // Declared before the registry: handles hold raw cell pointers, so the
  // cell list must be destroyed after the records are.
  obs::DomainStats stats_obs_;
  HandleRegistry<Handle> registry_;
  // The one retire mailbox: leave() donations and, while the background
  // reclaimer runs, mutators' threshold batches.  Adopted by the service
  // thread when it runs, else by the next retirer.
  RetireMailbox orphans_;
  ReclaimControl bg_;
  std::unique_ptr<DomainReclaimer<Derived>> reclaimer_;

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
    if (cfg.slots_per_thread < 1 || cfg.slots_per_thread > kMaxSlots)
      throw std::invalid_argument(
          "scot: SmrConfig::slots_per_thread must be in [1, 32]");
    return cfg;
  }

  Derived& derived() noexcept { return static_cast<Derived&>(*this); }

  static std::uint64_t load(std::uint64_t v) noexcept { return v; }
  static std::uint64_t load(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_acquire);
  }

  template <class Field>
  std::uint64_t sum_records(Field field) const noexcept {
    std::uint64_t n = 0;
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      n += load(r->handle.*field);
    return n;
  }

  // The one read of the retire/free counts (DESIGN.md §8).  Every free is
  // published (release) after the retire of the same node, so summing
  // `reclaimed` with acquire loads BEFORE summing `retired` counts at least
  // the retire of every free it saw: pending never reads negative.
  void read_totals(obs::StatsSnapshot& s) const noexcept {
    s.reclaimed_total = sum_records(&Handle::reclaimed);
    s.retired_total = sum_records(&Handle::retired);
    s.pending = static_cast<std::int64_t>(s.retired_total - s.reclaimed_total);
  }

  void free_chain(ReclaimNode* n, unsigned shard) noexcept {
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      pool_.free(shard, n, header_of(n)->alloc_size);
      n = next;
    }
  }

  // Destructor-time cleanup: no threads are active, free everything —
  // every record's private chain plus the mailbox.  Uncounted: nothing
  // reads the totals of a dying domain.
  void drain_all() {
    for (auto* r = registry_.head(); r != nullptr; r = r->next_record())
      free_chain(r->handle.take_retired(), r->index);
    free_chain(orphans_.take_all(), 0);
  }
};

}  // namespace scot
