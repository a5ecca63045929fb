// Typed, guard-centric protection (DESIGN.md §6).
//
// The handle calls take raw slot indices — `h.protect(src, idx)` /
// `h.dup(i, j)` — and the paper's ascending-index discipline is easy to get
// wrong by hand.  Structures use three small types instead:
//
//   * `Protected<T>` — a typed view of a pointer (plus its logical-deletion
//     bits) that a protection slot currently covers.  Invariants: it only
//     ever holds a value returned by protect()/publish() on a live guard,
//     and it is dereferenceable until the owning guard ends the operation
//     or the slot it came from is re-protected.
//   * `ProtectionSlot<Handle, T>` — one named protection role of a
//     traversal (curr / prev / first-unsafe / ...).  `dup_from` copies a
//     protection and asserts the ascending-index discipline instead of
//     relying on call-site constants; `swap_roles`/`rotate_roles` rename
//     which slot a role uses and copy nothing.
//   * `TraversalGuard<Handle>` — RAII owner of one operation: begin_op on
//     construction, end_op on destruction, slot allocation in between, and
//     the funnel for op_valid()/revalidate_op() polling.
//
// Everything here is a zero-cost veneer over the indexed handle calls:
// slots are (handle, index) pairs and the per-node calls are force-inlined
// down to the scheme's own protect()/publish()/dup() (DESIGN.md §6), so
// the per-protect fast path (including the asymmetric-fence publication)
// is exactly the scheme's slot store and validating re-read.
//
// Obtaining the Handle a TraversalGuard wraps: `auto h =
// scoped_handle(domain)` (smr/handle_registry.hpp) — RAII join/leave
// against the dynamic handle registry — then construct guards from `*h`.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/marked_ptr.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

// Typed view of a protected pointer.  Wraps the raw link-word value
// (`marked_ptr<T>`), so traversal code can still see logical-deletion bits;
// `get()`/`operator->` expose the cleaned pointer.
template <class T>
class Protected {
 public:
  using MP = marked_ptr<T>;

  constexpr Protected() noexcept = default;
  constexpr explicit Protected(MP v) noexcept : v_(v) {}
  constexpr explicit Protected(T* p) noexcept : v_(MP(p)) {}

  T* get() const noexcept { return v_.ptr(); }
  T* operator->() const noexcept { return v_.ptr(); }
  T& operator*() const noexcept { return *v_.ptr(); }
  constexpr explicit operator bool() const noexcept {
    return v_.ptr() != nullptr;
  }

  constexpr bool marked() const noexcept { return v_.marked(); }
  constexpr bool flagged() const noexcept { return v_.flagged(); }
  constexpr bool tagged() const noexcept { return v_.tagged(); }
  constexpr std::uintptr_t bits() const noexcept { return v_.bits(); }

  // The raw marked word, for CAS expected-values and zone validation.  The
  // conversion is implicit on purpose: a Protected *is* a protected link
  // value, and traversals mix the two constantly.
  constexpr MP value() const noexcept { return v_; }
  constexpr operator MP() const noexcept { return v_; }

  friend constexpr bool operator==(Protected a, Protected b) noexcept {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(Protected a, Protected b) noexcept {
    return a.v_ != b.v_;
  }

 private:
  MP v_;
};

// One named protection role, bound to a per-thread slot index that only
// swap_roles/rotate_roles change.  Copyable (it is just a handle + index);
// the *slot contents* are owned by the handle, exactly as in v1.
template <class Handle, class T>
class ProtectionSlot {
 public:
  ProtectionSlot(Handle& h, unsigned idx) noexcept : h_(&h), idx_(idx) {}

  // Publishes protection for the value currently in `src` and returns it
  // once stable.  `Link` is std::atomic<P> or StableAtomic<P> with
  // P = marked_ptr<T> or T*.  For Hyaline-style schemes the caller must
  // poll guard.valid() before trusting previously protected values.
  template <class Link>
  [[gnu::always_inline]] Protected<T> protect(const Link& src) noexcept {
    return Protected<T>(h_->protect(src, idx_));
  }

  // Non-validating publication for immortal anchors (sentinels that are
  // never retired).  Do NOT use for reclaimable nodes.
  [[gnu::always_inline]] void publish(T* anchor) noexcept {
    h_->publish(anchor, idx_);
  }

  // Copies another role's protection into this slot.  SCOT requires all
  // copies to flow toward *higher* indices because retirement scans read
  // slots in ascending order (paper §3.2, DESIGN.md §4) — asserted here
  // instead of at every call site.
  template <class U>
  [[gnu::always_inline]] void dup_from(
      const ProtectionSlot<Handle, U>& src) noexcept {
    assert(src.index() < idx_ &&
           "SCOT requires ascending-index dup (paper §3.2)");
    h_->dup(src.index(), idx_);
  }

  // Role renames: change which slot a role names, never a slot's contents.
  // A protected value stays in the slot it was published in, so no scan
  // order can miss it and the ascending rule above has nothing to order
  // (DESIGN.md §4).  Only the indices move: every role of one guard shares
  // the handle pointer.
  [[gnu::always_inline]] void swap_roles(ProtectionSlot& other) noexcept {
    assert(h_ == other.h_);
    std::swap(idx_, other.idx_);
  }

  // This role takes b's slot, b takes c's, and c takes this role's old slot.
  [[gnu::always_inline]] void rotate_roles(ProtectionSlot& b,
                                           ProtectionSlot& c) noexcept {
    assert(h_ == b.h_ && h_ == c.h_);
    const unsigned mine = idx_;
    idx_ = b.idx_;
    b.idx_ = c.idx_;
    c.idx_ = mine;
  }

  unsigned index() const noexcept { return idx_; }

 private:
  Handle* h_;
  unsigned idx_;
};

// RAII owner of one SMR operation: brackets begin_op/end_op, allocates
// protection slots in ascending order, and funnels validity polling.
template <class Handle>
class TraversalGuard {
 public:
  explicit TraversalGuard(Handle& h) noexcept : h_(&h) { h.begin_op(); }
  ~TraversalGuard() { h_->end_op(); }

  TraversalGuard(const TraversalGuard&) = delete;
  TraversalGuard& operator=(const TraversalGuard&) = delete;

  Handle& handle() noexcept { return *h_; }

  // Allocates the next protection index.  Structures allocate all their
  // roles up front, in the order the ascending-dup discipline needs; the
  // count must stay within SmrConfig::slots_per_thread (each structure
  // declares its requirement as kSlotsRequired and checks it with
  // require_slots() at construction).
  template <class T>
  ProtectionSlot<Handle, T> slot() noexcept {
    return ProtectionSlot<Handle, T>(*h_, next_index_++);
  }

  // False when the scheme invalidated the running operation (Hyaline's
  // reservation refresh); the traversal must revalidate() and restart from
  // an anchor before trusting any previously protected value.
  bool valid() const noexcept { return h_->op_valid(); }
  void revalidate() noexcept { h_->revalidate_op(); }

  // A traversal giving up its position to re-walk from its anchor: counts
  // the restart in the handle's ds_restarts and revalidates.
  void restart() noexcept {
    ++h_->ds_restarts;
    h_->revalidate_op();
  }

  // Typed allocation passthrough, so simple users never touch the handle
  // directly: hides the birth-era stamp and the StableAtomic link
  // re-initialisation (DESIGN.md §4).
  template <class T, class... Args>
  T* alloc(Args&&... args) {
    return h_->template alloc<T>(std::forward<Args>(args)...);
  }

 private:
  Handle* h_;
  unsigned next_index_ = 0;
};

// Structure constructors call this with their kSlotsRequired: HP/HE index
// their slot arrays unchecked on the protect path, so a domain with fewer
// slots per handle than the structure's traversal uses must be refused up
// front.  Throws std::invalid_argument.
template <class Domain>
void require_slots(const Domain& smr, unsigned required) {
  if (smr.config().slots_per_thread < required)
    throw std::invalid_argument(
        "scot: SmrConfig::slots_per_thread is below the structure's "
        "kSlotsRequired");
}

}  // namespace scot
