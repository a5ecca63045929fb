// Asymmetric process-wide fences for reader/reclaimer protocols.
//
// Hazard-pointer-style publication needs a StoreLoad edge on the *reader*
// side: the slot store must be globally visible before the validating
// re-read executes.  Encoding that edge symmetrically puts a full fence on
// every protect() call — the dominant cost of HP/HPopt traversals
// (and of HE/IBR era publication) on read-mostly workloads.  Era-scheme
// *operation activation* (EBR's epoch reservation, IBR's interval publish,
// Hyaline's slot activation) carries the same shaped edge — the activation
// store vs. the operation's first shared load — and uses the same remedy,
// so an era-scheme read-side operation is fence-free end to end.
//
// The standard remedy is to make the fence asymmetric: readers run a
// release store plus a *compiler-only* barrier (Path::kMembarrier), and the
// rare reclaimer compensates by issuing one process-wide heavy barrier
// (`sys_membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`, which IPIs every CPU
// running this process) before it reads the published slots.  See
// DESIGN.md §5 for the safety argument, and the SMR surveys (Singh 2024;
// Nikolaev & Ravindran's Hyaline line) for the technique's pedigree.
//
// Two runtime paths, resolved per reclamation domain at construction:
//   kMembarrier    — the asymmetric discipline: light_barrier() compiles to
//                    nothing, heavy_barrier() is the expedited membarrier
//                    syscall.  Requires one process-wide registration,
//                    performed the first time a domain resolves the path.
//   kFenceFallback — the symmetric discipline: light_barrier() is a real
//                    seq_cst fence per publication and heavy_barrier() a
//                    local one.  Runs when asymmetric fences are switched
//                    off (the A/B control) and when the syscall is
//                    unavailable (non-Linux, old kernel, seccomp); nothing
//                    else in the domain changes.
#pragma once

#include <atomic>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/trace.hpp"

// ThreadSanitizer does not instrument stand-alone atomic_thread_fence (GCC
// even warns "'atomic_thread_fence' is not supported with
// '-fsanitize=thread'"), so orderings established only by a fence are
// invisible to the race detector — a fence-shaped blind spot.  Under TSan
// we substitute a seq_cst RMW on a process-wide dummy atomic, which TSan
// does model; on real hardware an RMW is at least as strong as the fence it
// replaces, and outside TSan builds the plain fence is kept.
#if defined(__SANITIZE_THREAD__)
#define SCOT_TSAN_FENCES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCOT_TSAN_FENCES 1
#endif
#endif
#ifndef SCOT_TSAN_FENCES
#define SCOT_TSAN_FENCES 0
#endif

namespace scot::asymfence {

#if SCOT_TSAN_FENCES
namespace detail {
inline std::atomic<unsigned>& fence_sink() noexcept {
  static std::atomic<unsigned> sink{0};
  return sink;
}
}  // namespace detail
#endif

// TSan-aware stand-alone fences.  All raw atomic_thread_fence uses in the
// library route through these so TSan sees every fence-carried edge.
inline void release_fence() noexcept {
#if SCOT_TSAN_FENCES
  detail::fence_sink().fetch_add(1, std::memory_order_release);
#else
  std::atomic_thread_fence(std::memory_order_release);
#endif
}

inline void seq_cst_fence() noexcept {
#if SCOT_TSAN_FENCES
  detail::fence_sink().fetch_add(1, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

enum class Path {
  kMembarrier,     // registered; expedited membarrier serves heavy_barrier()
  kFenceFallback,  // knob off or syscall unavailable; per-publish fences
};

// Test hook: makes resolve() behave as if sys_membarrier were unavailable,
// so the fallback path can be exercised on kernels that do support the
// syscall.  Affects domains constructed *after* the call.
inline std::atomic<bool>& detail_force_fallback() noexcept {
  static std::atomic<bool> f{false};
  return f;
}
inline void force_fallback_for_testing(bool on) noexcept {
  detail_force_fallback().store(on, std::memory_order_relaxed);
}

namespace detail {

enum class SysState { kUnknown, kReady, kUnavailable };

inline std::atomic<SysState>& sys_state() noexcept {
  static std::atomic<SysState> s{SysState::kUnknown};
  return s;
}

// Probes and registers in one step.  Registration is idempotent and
// process-wide; racing probes from concurrent domain constructors at worst
// register twice.
inline SysState probe_and_register() noexcept {
#if defined(__linux__) && defined(SYS_membarrier)
  const long cmds = syscall(SYS_membarrier, MEMBARRIER_CMD_QUERY, 0, 0);
  if (cmds < 0 ||
      (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0 ||
      (cmds & MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) == 0)
    return SysState::kUnavailable;
  if (syscall(SYS_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0,
              0) != 0)
    return SysState::kUnavailable;
  return SysState::kReady;
#else
  return SysState::kUnavailable;
#endif
}

inline SysState ensure_registered() noexcept {
  auto& st = sys_state();
  SysState s = st.load(std::memory_order_acquire);
  if (s == SysState::kUnknown) {
    s = probe_and_register();
    st.store(s, std::memory_order_release);
  }
  return s;
}

}  // namespace detail

// Resolves the runtime path for a domain, registering the process for
// expedited membarrier on first use.  Call once per domain construction and
// cache the result: the branch in protect() must be on a plain bool/enum,
// not on an atomic.
inline Path resolve(bool want_asymmetric) noexcept {
  if (!want_asymmetric ||
      detail_force_fallback().load(std::memory_order_relaxed))
    return Path::kFenceFallback;
  return detail::ensure_registered() == detail::SysState::kReady
             ? Path::kMembarrier
             : Path::kFenceFallback;
}

// What resolve() picks when asymmetric fences are requested.  Bench report
// metadata records this; it consults (and, on first call, performs) the
// same probe-and-register resolve() uses, so it can never disagree with
// the path the domains actually run — e.g. when QUERY advertises the
// commands but seccomp rejects the registration.
inline const char* runtime_path_name() noexcept {
  if (detail_force_fallback().load(std::memory_order_relaxed))
    return "fence-fallback";
  return detail::ensure_registered() == detail::SysState::kReady
             ? "membarrier"
             : "fence-fallback";
}

inline const char* path_name(Path p) noexcept {
  switch (p) {
    case Path::kMembarrier: return "membarrier";
    case Path::kFenceFallback: return "fence-fallback";
  }
  return "?";
}

// Reader-side publication barrier.  Callers pass their domain's resolved
// path.
[[gnu::always_inline]] inline void light_barrier(Path p) noexcept {
  if (p == Path::kMembarrier) {
    // Compiler barrier only: the matching heavy_barrier() supplies the
    // hardware StoreLoad edge on the rare reclaimer side.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  } else {
    // Fallback: a real full fence per slot (TSan-aware, so the reader /
    // reclaimer pairing stays visible to the race detector).
    seq_cst_fence();
  }
}

// The one reader-side publication: a release store of `value`, then the
// path's light barrier, so the store is ordered before the caller's next
// shared load (StoreLoad) — by the fence itself on the fallback path, by
// the scan's heavy barrier on the membarrier path (DESIGN.md §5).
template <class T>
[[gnu::always_inline]] inline void publish(std::atomic<T>& slot, T value,
                                           Path p) noexcept {
  slot.store(value, std::memory_order_release);
  light_barrier(p);
}

// Reclaimer-side barrier, issued once per scan before the first read of the
// published slots.  After it returns, every reader publication that was not
// yet visible belongs to a reader whose validating re-read is ordered after
// this point (see DESIGN.md §5).
inline void heavy_barrier(Path p) noexcept {
  // Every scheme's scan/seal funnels through here, so this one span covers
  // all heavy-barrier events in the trace (no-op unless SCOT_TRACE=1).
  obs::TraceSpan span(obs::TraceKind::kBarrier);
#if defined(__linux__) && defined(SYS_membarrier)
  if (p == Path::kMembarrier &&
      syscall(SYS_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) == 0)
    return;
#else
  (void)p;
#endif
  // Fallback path — readers already fence per slot, so a local full fence
  // is all the reclaimer needs.  Also the safety net for a post-registration
  // syscall failure, which the kernel contract rules out.
  seq_cst_fence();
}

}  // namespace scot::asymfence
