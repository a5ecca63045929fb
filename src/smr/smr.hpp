// Umbrella header for the reclamation schemes, plus the one compile-time
// concept data structures are written against (DESIGN.md §6).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "common/stable_atomic.hpp"
#include "smr/ebr.hpp"
#include "smr/guard.hpp"
#include "smr/he.hpp"
#include "smr/hp.hpp"
#include "smr/hyaline.hpp"
#include "smr/ibr.hpp"
#include "smr/nr.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

// The scheme⇄structure contract.  Threads join()/leave() the domain at any
// point in its lifetime (scoped_handle(d) is the RAII spelling; DESIGN.md
// §7).  Through the joined handle a structure brackets operations, protects
// by index — real slots for HP/HE, no-ops for EBR/IBR/Hyaline/NR (DESIGN.md
// §4) — and retires; the typed guard surface (TraversalGuard, named
// ProtectionSlots, Protected<T>; smr/guard.hpp) is a zero-cost veneer over
// those calls.  Every domain also exposes the uniform background-reclaimer
// lifecycle (DESIGN.md §9); NR's is inert.  DomainCore and HandleCore
// supply everything here except the protocol calls a scheme defines.
template <class D>
concept SmrDomain =
    requires(D d, typename D::Handle& h, TraversalGuard<typename D::Handle>& g,
             ProtectionSlot<typename D::Handle, ReclaimNode> slot,
             const std::atomic<ReclaimNode*>& src,
             const StableAtomic<marked_ptr<ReclaimNode>>& link,
             Protected<ReclaimNode> p, ReclaimNode* n, unsigned idx) {
      { D::kName } -> std::convertible_to<const char*>;
      { D::kRobust } -> std::convertible_to<bool>;
      { d.config() } -> std::convertible_to<const SmrConfig&>;
      { d.pending_nodes() } -> std::convertible_to<std::int64_t>;
      { d.join() } -> std::same_as<typename D::Handle&>;
      d.leave(h);
      { d.active_handles() } -> std::convertible_to<unsigned>;
      { d.total_handle_records() } -> std::convertible_to<std::size_t>;
      { d.registry() } ->
          std::same_as<const HandleRegistry<typename D::Handle>&>;
      { d.restarts() } -> std::convertible_to<std::uint64_t>;
      { d.recoveries() } -> std::convertible_to<std::uint64_t>;
      { d.background_active() } -> std::convertible_to<bool>;
      d.start_background_reclaimer();
      d.stop_background_reclaimer();

      h.begin_op();
      h.end_op();
      { h.protect(src, idx) } -> std::same_as<ReclaimNode*>;
      h.publish(n, idx);
      h.dup(idx, idx);
      { h.op_valid() } -> std::convertible_to<bool>;
      h.revalidate_op();
      h.retire(n);
      h.retire(p);

      { g.handle() } -> std::same_as<typename D::Handle&>;
      { g.valid() } -> std::convertible_to<bool>;
      g.revalidate();
      { g.template slot<ReclaimNode>() } ->
          std::same_as<ProtectionSlot<typename D::Handle, ReclaimNode>>;
      { slot.protect(link) } -> std::same_as<Protected<ReclaimNode>>;
      slot.publish(n);
      slot.dup_from(slot);
    };

static_assert(SmrDomain<NoReclaimDomain>);
static_assert(SmrDomain<EbrDomain>);
static_assert(SmrDomain<HpDomain>);
static_assert(SmrDomain<HpOptDomain>);
static_assert(SmrDomain<HeDomain>);
static_assert(SmrDomain<IbrDomain>);
static_assert(SmrDomain<HyalineDomain>);

}  // namespace scot
