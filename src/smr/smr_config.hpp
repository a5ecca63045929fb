// Shared configuration knobs and statistics for all reclamation domains.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string_view>

namespace scot {

namespace smr_config_detail {

// Default for SmrConfig::asymmetric_fences: on, unless SCOT_ASYM is set to a
// false-y value ("", "0", "false", "off", "no").  The env knob exists so CI
// can run the whole test matrix against both fence disciplines without
// touching any test code (the bench harness uses the --no-asym flag
// instead).
inline bool asym_fences_default() noexcept {
  static const bool v = [] {
    const char* e = std::getenv("SCOT_ASYM");
    if (e == nullptr) return true;
    const std::string_view s(e);
    return !(s.empty() || s == "0" || s == "false" || s == "off" ||
             s == "no");
  }();
  return v;
}

// Default for SmrConfig::background_reclaim: off, unless SCOT_BG is set to a
// truth-y value.  Mirrors SCOT_ASYM (inverted polarity: the reclaimer is
// opt-in) so CI can run the whole test matrix with a service thread per
// domain without touching any test code.
inline bool bg_reclaim_default() noexcept {
  static const bool v = [] {
    const char* e = std::getenv("SCOT_BG");
    if (e == nullptr) return false;
    const std::string_view s(e);
    return !(s.empty() || s == "0" || s == "false" || s == "off" ||
             s == "no");
  }();
  return v;
}

}  // namespace smr_config_detail

struct SmrConfig {
  // Sizing hint for the expected number of concurrent handles; membership
  // itself is dynamic.  Seeds the NodePool shard count, the wait-free help
  // registry, and Hyaline's automatic batch capacity.
  unsigned max_threads = 8;

  // Limbo-list scan frequency: reclamation is attempted once per
  // `scan_threshold` retire() calls per thread.  The paper calibrates this
  // to 128 for every scheme (Section 5).
  unsigned scan_threshold = 128;

  // Global era/epoch advance frequency: the clock ticks once per `era_freq`
  // allocations (and retirements) per thread.  The paper uses 12x the thread
  // count; the benchmark harness sets that, the default suits tests.
  unsigned era_freq = 128;

  // Number of protection indices per thread for slot-based schemes (HP, HE),
  // in [1, kMaxSlots] = [1, 32] (domains throw otherwise).  Each structure
  // declares what its traversal needs as kSlotsRequired and refuses a
  // smaller value: the SCOT list needs 4, the SCOT tree 6, the kv map 7.
  unsigned slots_per_thread = 8;

  // Hyaline batch capacity, in retired nodes per seal; 0 = auto
  // (max_threads + 1, the Hyaline paper's batch size).  Any value is safe:
  // a batch's slot entries live in its handle, not in member nodes.
  unsigned batch_capacity = 0;

  // Give each handle an obs counter cell (src/obs/stats.hpp, DESIGN.md §8);
  // throughput benchmarks may turn it off.  The pending-node gauge is not
  // gated by it: retire/free counts are always kept, because the adaptive
  // controller and the memory benchmarks read them.
  bool track_stats = true;

  // Asymmetric-fence fast path, covering both reader-side publications:
  // protection (HP/HPopt protect(), HE/IBR era publication) and operation
  // activation (EBR/IBR/Hyaline begin_op; HE activates at its first slot
  // publish).  Readers publish with a release store plus a compiler
  // barrier, and the reclaimer side — limbo scans and Hyaline's
  // retire-batch handoff — issues one process-wide heavy barrier before
  // reading the reservations instead (src/common/asymfence.hpp, DESIGN.md
  // §5).  Off = the symmetric discipline: a seq_cst fence after every
  // publication and in every scan — the same fence path the knob falls
  // back to automatically when sys_membarrier is unavailable.  Default
  // honours the SCOT_ASYM env knob.
  bool asymmetric_fences = smr_config_detail::asym_fences_default();

  // Background reclaimer (smr/reclaimer.hpp, DESIGN.md §9).  When on, the
  // domain runs one service thread: mutators hand full retire batches over a
  // lock-free mailbox instead of scanning inline, and the service thread
  // amortizes the one heavy barrier per reclamation round across every
  // donated batch.  Default honours the SCOT_BG env knob (off unless set).
  bool background_reclaim = smr_config_detail::bg_reclaim_default();

  // Reclaimer round period in microseconds: the service thread wakes at
  // least this often even when no mutator rings its doorbell (a donation
  // signal can be missed by at most one period — DESIGN.md §9).
  unsigned reclaim_interval_us = 100;

  // Adaptive-control target for the pending-node gauge, in nodes (0 = no
  // adaptation).  While pending exceeds the target the reclaimer halves the
  // effective scan_threshold/era_freq (floors apply); once pending drops
  // below half the target they relax back toward the configured values.
  std::uint64_t memory_target = 0;
};

}  // namespace scot
