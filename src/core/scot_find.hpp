// The one SCOT traversal: Figure 5's Do_Find, shared by the Harris list
// (core/harris_list.hpp) and the kv map's split-ordered list
// (kv/kv_hash_map.hpp), which paper §2.3 treats as a Harris list.
//
// Harris' list lets traversals walk *through* chains of logically deleted
// nodes and remove a whole chain with one CAS.  A traverser standing inside
// a marked chain follows frozen next-pointers whose targets may already be
// retired (Figure 2 of the paper), so SCOT adds:
//
//   * The `prev` role protects the *last safe* (unmarked) node and the
//     `unsafe` role the *first unsafe* (marked) node of the chain (the
//     "dangerous zone").
//   * After protecting each next node inside the zone, the traverser
//     validates that the last safe node still points at the first unsafe
//     node.  Chains are only ever unlinked whole-prefix through the last
//     safe node's link (the mark bit lives in the predecessor's next field),
//     so a successful validation proves the chain was still linked — hence
//     not yet retired — when the protection was published.
//   * On validation failure the walk restarts from its start link, or, with
//     the §3.2.1 *recovery optimization*, hops to the last safe node's new
//     successor when that node is itself still unmarked.
//
// Traits select the paper's variants:
//   kUnrolled  — Figure 5 right vs. Figure 5 left (3 dups everywhere).  The
//                paper's unrolled Do_Find makes 2 dups per safe-zone step
//                and 1 per zone step; here each of those is a role rename
//                (ProtectionSlot::rotate_roles/swap_roles), so it copies
//                no protection at all (DESIGN.md §4);
//   kRecovery  — §3.2.1 recovery optimization;
//   kWaitFree  — §3.4 wait-free Search via the helping protocol (the
//                Harris list's; scot_find sees it only as a Control).
//
// The skip list's per-level step stays its own (core/skip_list.hpp): its
// prunes never retire, it tracks a watched node, and a failure restarts
// from the top level.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "core/wait_free.hpp"
#include "smr/guard.hpp"

namespace scot {

struct HarrisListTraits {
  static constexpr bool kUnrolled = true;
  static constexpr bool kRecovery = true;
  static constexpr bool kWaitFree = false;
  static constexpr int kFastPathRestarts = 4;  // M, before Request_Help
};

struct HarrisListSimpleTraits : HarrisListTraits {
  static constexpr bool kUnrolled = false;
};

struct HarrisListNoRecoveryTraits : HarrisListTraits {
  static constexpr bool kRecovery = false;
};

struct HarrisListWaitFreeTraits : HarrisListTraits {
  static constexpr bool kWaitFree = true;
};

enum class FindOutcome : std::uint8_t {
  kOk,            // position settled
  kAborted,       // fast-path budget exhausted
  kExternalTrue,  // slow path: another participant published "found"
  kExternalFalse  // slow path: another participant published "not found"
};

// --- traversal control policies ------------------------------------------
struct DefaultControl {
  bool on_restart() const { return true; }
  WfPoll poll() const { return WfPoll::kContinue; }
};
struct BoundedControl {
  int budget;
  bool on_restart() { return --budget > 0; }
  WfPoll poll() const { return WfPoll::kContinue; }
};
template <class Key>
struct HelpControl {
  WfHelpRegistry<Key>* reg;
  unsigned help_tid;
  std::uint64_t tag;
  bool on_restart() const { return true; }
  WfPoll poll() const { return reg->poll_status(help_tid, tag); }
};

// The traversal's four protection roles.  Construction order is the slot
// index order, so the simple variant's dup_from copies toward a higher
// index (paper §3.2; asserted by ProtectionSlot).  scot_find renames the
// roles in a local copy; the caller's roles keep the initial assignment.
template <class Handle, class Node>
struct ScotRoles {
  using Slot = ProtectionSlot<Handle, Node>;
  Slot next, curr, prev, unsafe;
  explicit ScotRoles(TraversalGuard<Handle>& g)
      : next(g.template slot<Node>()),
        curr(g.template slot<Node>()),
        prev(g.template slot<Node>()),
        unsafe(g.template slot<Node>()) {}
};

// Where a walk settled: the last safe link, the first live node ordered at
// or after the key (null at the end of a null-terminated list) and its
// successor.  The prev node, curr and next stay protected in whichever
// slots their roles ended on, until the guard ends or the next walk.
template <class Node>
struct ScotPosition {
  StableAtomic<marked_ptr<Node>>* prev;
  Node* curr;
  marked_ptr<Node> next;
  bool found;
  FindOutcome outcome;
};

// SCOT Do_Find (Figure 5) from `start`.  `order(n)` is positive while node
// n sorts before the search key, zero on the key's node and negative past
// it; it must be negative at the end of the list (a tail sentinel, or null
// for a null-terminated list).  With `unlink`, the marked chain in front of
// the settled node is removed with one CAS and retired (Figure 5, L57-59).
// A failed validation or CAS re-walks from `start`; `control` may abort
// the walk or settle it from outside (the wait-free slow path).
template <class Traits, class Handle, class Node, class Order,
          class Control = DefaultControl>
ScotPosition<Node> scot_find(TraversalGuard<Handle>& g,
                             const ScotRoles<Handle, Node>& roles,
                             StableAtomic<marked_ptr<Node>>& start,
                             Order order, bool unlink, Control control = {}) {
  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;
  // Roles, key (inside `order`) and control are locals, so they stay in
  // registers across the light barrier's compiler clobber instead of being
  // reloaded through references after every protect.  A restart
  // re-protects every role, so whatever slots the renames left each role
  // on are a valid start.  All locals are hoisted so that `goto restart`
  // stays well-formed.
  ScotRoles<Handle, Node> hp = roles;
  Link* prev;
  MP prev_next;  // expected value of *prev while inside a dangerous zone
  Node* curr;
  MP next{};
  MP tmp;
  bool in_zone;
  int c;

  g.revalidate();
  goto walk;

restart:
  g.restart();
  if (!control.on_restart())
    return {nullptr, nullptr, MP{}, false, FindOutcome::kAborted};

walk:
  prev = &start;
  prev_next = MP{};
  in_zone = false;
  tmp = hp.curr.protect(start);
  if (!g.valid()) goto restart;
  curr = tmp.ptr();

  for (;;) {
    switch (control.poll()) {
      case WfPoll::kContinue:
        break;
      case WfPoll::kStale:
      case WfPoll::kDoneFalse:
        return {nullptr, nullptr, MP{}, false, FindOutcome::kExternalFalse};
      case WfPoll::kDoneTrue:
        return {nullptr, nullptr, MP{}, false, FindOutcome::kExternalTrue};
    }

    // Null only ends a null-terminated list, once per walk.  The hint
    // keeps the per-node path straight-line: without it, GCC's block
    // layout cost perfbench list-read mops.HE a third.
    if (curr != nullptr) [[likely]] {
      next = hp.next.protect(curr->next);
      if (!g.valid()) goto restart;
      if (in_zone) {
        // SCOT validation (Figure 5, L55): the last safe node must still
        // point at the first unsafe node, otherwise the chain may have
        // been unlinked and (partially) reclaimed.
        const MP w = prev->load(std::memory_order_seq_cst);
        if (w != prev_next) {
          // §3.2.1: if the last safe node is itself still unmarked, the
          // zone was resolved (unlinked or replaced) — continue from its
          // new successor instead of restarting from `start`.
          if (!Traits::kRecovery || w.marked()) goto restart;
          ++g.handle().ds_recoveries;
          tmp = hp.curr.protect(*prev);
          if (!g.valid() || tmp.marked()) goto restart;
          curr = tmp.ptr();
          prev_next = MP{};
          in_zone = false;
          continue;
        }
      }

      if (next.marked()) {
        // --- dangerous zone (curr is logically deleted) ----------------
        if constexpr (Traits::kUnrolled) {
          if (!in_zone) {
            // Figure 5 right, L48-49: the first unsafe node stays in its
            // slot, now named unsafe; curr takes next's slot and next
            // reuses the one unsafe named.
            hp.unsafe.rotate_roles(hp.curr, hp.next);
            prev_next = MP(curr);
          } else {
            hp.curr.swap_roles(hp.next);
          }
        } else {
          // Figure 5 left: unsafe/prev_next already mirror curr since the
          // last safe step, except at the start of a walk or a recovery.
          if (!prev_next) {
            hp.unsafe.dup_from(hp.curr);
            prev_next = MP(curr);
          }
          assert(in_zone || prev_next == MP(curr));
          hp.curr.dup_from(hp.next);
        }
        in_zone = true;
        curr = next.ptr();
        continue;
      }
    }

    // --- safe zone (curr is live, or the end of the list) ----------------
    c = order(curr);
    if (c <= 0) break;
    if constexpr (Traits::kUnrolled) {
      // prev takes curr's slot, curr takes next's, and next reuses the
      // slot the old last safe node held.
      hp.prev.rotate_roles(hp.curr, hp.next);
    } else {
      hp.prev.dup_from(hp.curr);
      // Simple variant: continuously mirror next into unsafe so that zone
      // entry needs no extra work (Figure 5 left, L11-14).
      hp.unsafe.dup_from(hp.next);
      prev_next = next;
      hp.curr.dup_from(hp.next);
    }
    in_zone = false;
    prev = &curr->next;
    curr = next.ptr();
  }

  // Settled: curr is the first live node ordered at or after the key.
  if (unlink && in_zone) {
    // Remove the whole marked chain with one CAS (Figure 5, L57-59), then
    // retire every node of it (Do_Retire).
    MP expected = prev_next;
    if (!prev->compare_exchange_strong(expected, MP(curr),
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
      goto restart;
    }
    for (Node* n = prev_next.ptr(); n != curr;) {
      Node* const after = n->next.load(std::memory_order_relaxed).ptr();
      g.handle().retire(n);
      n = after;
    }
  }
  return {prev, curr, next, c == 0, FindOutcome::kOk};
}

}  // namespace scot
