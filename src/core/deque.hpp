// Michael's CAS-based lock-free deque (PODC 2003), adapted for portable
// single-word CAS and SMR compatibility via *anchor indirection*.
//
// The original algorithm packs {left, right, status} into one double-width
// anchor word and mutates it with DCAS-width CAS.  Here the anchor is an
// immutable heap object behind a single CAS-able pointer: every transition
// allocates a fresh Anchor, installs it with one pointer CAS, and retires
// the old one through the SMR domain like any node.  That keeps the
// algorithm's linearization structure byte-for-byte (each anchor CAS is one
// of Michael's anchor transitions) while staying on portable 64-bit CAS —
// and it makes the anchor itself subject to the paper's discipline, which
// is the interesting part: *two* object kinds now flow through retire().
//
// Recovery discipline (DESIGN.md §11): the anchor is the traversal; restart
// means re-protect it.  Nodes hanging off a protected anchor are protected
// by publish-then-validate — publish the node's address, then re-check
// `anchor_ == A`: while A is installed no node reachable from it has been
// retired (pops replace the anchor *before* retiring), so a successful
// validation proves the published node was unretired at the validation
// point and the hazard store precedes any future scan.  Interval schemes
// (IBR) make publish() a no-op and rely on the reservation instead; that
// still covers every node reachable from a protected anchor (its birth
// predates the anchor's install, which the reservation covers) but NOT a
// node this thread allocated mid-operation — self-allocated objects must
// be re-acquired with protect(), never publish-then-validate (see the
// own-stabilization path in push()).  The recovery
// escape is stabilization helping: an operation that meets a non-STABLE
// anchor fixes the neighbor link and installs the STABLE twin instead of
// spinning, counted in ds_recoveries.
//
// Protection roles (ascending slot order): hp.anchor = the anchor snapshot,
// hp.node = the end node being pushed over / popped, hp.prev = its inward
// neighbor (stabilization only).
//
// ABA safety: anchors are freshly allocated per transition and never
// re-installed, and a protected anchor cannot be recycled by the pool, so
// `anchor_ == A` with A protected always means "still the same
// installation".
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>

#include "common/align.hpp"
#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "smr/handle_registry.hpp"
#include "smr/reclaim_node.hpp"
#include "smr/smr.hpp"

namespace scot {

template <class T, SmrDomain Smr>
class Deque {
 public:
  enum class Status : std::uint8_t { kStable, kRPush, kLPush };

  struct Node;
  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;

  struct Node : ReclaimNode {
    T value;
    Link left, right;
    explicit Node(const T& v = {}) : value(v), left(MP{}), right(MP{}) {}
  };

  // Immutable after its publishing CAS: all three fields are written before
  // the install and never mutated, so plain reads through a protected,
  // validated anchor pointer are race-free.
  struct Anchor : ReclaimNode {
    Node* left;
    Node* right;
    Status status;
    Anchor(Node* l, Node* r, Status s) : left(l), right(r), status(s) {}
  };

  using AMP = marked_ptr<Anchor>;
  using ALink = StableAtomic<AMP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using AnchorSlot = ProtectionSlot<Handle, Anchor>;
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 3;

  // Slot roles in index (= ascending-dup) order.
  struct Hp {
    AnchorSlot anchor;
    NodeSlot node, prev;
    explicit Hp(Guard& g)
        : anchor(g.template slot<Anchor>()),
          node(g.template slot<Node>()),
          prev(g.template slot<Node>()) {}
  };

  explicit Deque(Smr& smr) : smr_(smr) {
    require_slots(smr_, kSlotsRequired);
    auto h = scoped_handle(smr_);
    Anchor* a = h->template alloc<Anchor>(nullptr, nullptr, Status::kStable);
    anchor_.store(AMP(a), std::memory_order_release);
  }

  ~Deque() {
    // Single-threaded teardown.  A quiescent anchor is almost always
    // STABLE; if the last operation's stabilization lost its final CAS to
    // a stale helper, complete the link fix here so the right-link walk
    // below covers every node.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Anchor* A = anchor_.load(std::memory_order_relaxed).ptr();
    if (A->status == Status::kRPush) {
      Node* r = A->right;
      r->left.load(std::memory_order_relaxed)
          .ptr()
          ->right.store(MP(r), std::memory_order_relaxed);
    } else if (A->status == Status::kLPush) {
      Node* l = A->left;
      l->right.load(std::memory_order_relaxed)
          .ptr()
          ->left.store(MP(l), std::memory_order_relaxed);
    }
    Node* n = A->left;
    Node* const last = A->right;
    while (n != nullptr) {
      Node* next = n == last
                       ? nullptr
                       : n->right.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
    h.dealloc_unpublished(A);
  }

  Deque(const Deque&) = delete;
  Deque& operator=(const Deque&) = delete;

  void push_right(Handle& h, const T& value) { push<false>(h, value); }
  void push_left(Handle& h, const T& value) { push<true>(h, value); }
  std::optional<T> pop_right(Handle& h) { return pop<false>(h); }
  std::optional<T> pop_left(Handle& h) { return pop<true>(h); }

  // Single-threaded size (tests / teardown only).  Walks the link chain
  // whose final fix cannot be pending: the right-link chain is complete
  // unless the anchor is mid-RPUSH, the left-link chain unless mid-LPUSH.
  std::size_t size_unsafe() const {
    const Anchor* A = anchor_.load(std::memory_order_acquire).ptr();
    if (A->right == nullptr) return 0;
    std::size_t n = 1;
    if (A->status == Status::kRPush) {
      for (const Node* c = A->right; c != A->left;
           c = c->left.load(std::memory_order_acquire).ptr())
        ++n;
    } else {
      for (const Node* c = A->left; c != A->right;
           c = c->right.load(std::memory_order_acquire).ptr())
        ++n;
    }
    return n;
  }

 private:
  // Mirrored accessors so one template body serves both ends.  `Inward`
  // is the direction from the operated end toward the middle.
  template <bool Left>
  static Node* end_of(const Anchor* a) {
    return Left ? a->left : a->right;
  }
  template <bool Left>
  static Node* other_end_of(const Anchor* a) {
    return Left ? a->right : a->left;
  }
  template <bool Left>
  static Link& inward(Node* n) {  // link from the end node toward the middle
    return Left ? n->right : n->left;
  }
  template <bool Left>
  static Link& outward(Node* n) {  // link from the neighbor toward the end
    return Left ? n->left : n->right;
  }
  template <bool Left>
  Anchor* make_anchor(Handle& h, Node* end, Node* other, Status s) {
    return Left ? h.template alloc<Anchor>(end, other, s)
                : h.template alloc<Anchor>(other, end, s);
  }
  template <bool Left>
  static constexpr Status push_status() {
    return Left ? Status::kLPush : Status::kRPush;
  }

  template <bool Left>
  void push(Handle& h, const T& value) {
    Guard guard(h);
    Hp hp(guard);
    Node* n = h.template alloc<Node>(value);
    for (;;) {
      Protected<Anchor> a = hp.anchor.protect(anchor_);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      Anchor* A = a.get();
      if (A->right == nullptr) {  // empty: both ends become n, already stable
        n->left.store(MP{}, std::memory_order_relaxed);
        n->right.store(MP{}, std::memory_order_relaxed);
        Anchor* na = h.template alloc<Anchor>(n, n, Status::kStable);
        AMP expected(A);
        if (anchor_.compare_exchange_strong(expected, AMP(na),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          h.retire(A);
          return;
        }
        h.dealloc_unpublished(na);
        guard.restart();
      } else if (A->status == Status::kStable) {
        Node* end = end_of<Left>(A);
        hp.node.publish(end);
        if (anchor_.load(std::memory_order_seq_cst) != AMP(A) ||
            !guard.valid()) {
          guard.restart();
          continue;
        }
        // n's inward link is final before the install; the neighbor's
        // outward link is what stabilization fixes afterwards.
        inward<Left>(n).store(MP(end), std::memory_order_relaxed);
        outward<Left>(n).store(MP{}, std::memory_order_relaxed);
        Anchor* na =
            make_anchor<Left>(h, n, other_end_of<Left>(A), push_status<Left>());
        AMP expected(A);
        if (anchor_.compare_exchange_strong(expected, AMP(na),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          h.retire(A);
          // Our own stabilization, not a help.  Re-protect through
          // protect(), NOT publish-then-validate: na is self-allocated,
          // so its birth era can exceed an interval scheme's reserved
          // upper bound — a no-op publish() plus a successful anchor
          // re-read would NOT protect it (IBR).  protect() bumps the
          // reservation to the era of the load, which covers na's birth.
          Protected<Anchor> pa = hp.anchor.protect(anchor_);
          if (pa.get() == na && guard.valid()) {
            stabilize_end<Left>(guard, hp, na);
          }
          return;
        }
        h.dealloc_unpublished(na);
        guard.restart();
      } else {
        help_stabilize(guard, hp, A);
      }
    }
  }

  template <bool Left>
  std::optional<T> pop(Handle& h) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      Protected<Anchor> a = hp.anchor.protect(anchor_);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      Anchor* A = a.get();
      if (A->right == nullptr) return std::nullopt;  // empty
      if (A->right == A->left) {
        // Single node; single-node anchors are STABLE by construction.
        Node* end = A->right;
        hp.node.publish(end);
        if (anchor_.load(std::memory_order_seq_cst) != AMP(A) ||
            !guard.valid()) {
          guard.restart();
          continue;
        }
        Anchor* na =
            h.template alloc<Anchor>(nullptr, nullptr, Status::kStable);
        AMP expected(A);
        if (anchor_.compare_exchange_strong(expected, AMP(na),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          T value = end->value;  // end is published + validated above
          h.retire(A);
          h.retire(end);
          return value;
        }
        h.dealloc_unpublished(na);
        guard.restart();
      } else if (A->status == Status::kStable) {
        Node* end = end_of<Left>(A);
        hp.node.publish(end);
        if (anchor_.load(std::memory_order_seq_cst) != AMP(A) ||
            !guard.valid()) {
          guard.restart();
          continue;
        }
        Node* neighbor = inward<Left>(end).load(std::memory_order_seq_cst).ptr();
        // Re-validate: neighbor must be the value consistent with A (a
        // later round could have rewritten end's inward link after A was
        // replaced).  end stays dereferenceable either way — it is
        // published — but the anchor we build from neighbor must not be.
        if (anchor_.load(std::memory_order_seq_cst) != AMP(A)) {
          guard.restart();
          continue;
        }
        Anchor* na =
            make_anchor<Left>(h, neighbor, other_end_of<Left>(A),
                              Status::kStable);
        AMP expected(A);
        if (anchor_.compare_exchange_strong(expected, AMP(na),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          T value = end->value;
          h.retire(A);
          h.retire(end);
          return value;
        }
        h.dealloc_unpublished(na);
        guard.restart();
      } else {
        help_stabilize(guard, hp, A);
      }
    }
  }

  // Help path for an operation that met a non-STABLE anchor: the recovery
  // escape (the protected snapshot is reused to finish someone else's
  // stabilization instead of spinning on the anchor).
  void help_stabilize(Guard& g, Hp& hp, Anchor* A) {
    ++g.handle().ds_recoveries;
    if (A->status == Status::kRPush) {
      stabilize_end<false>(g, hp, A);
    } else {
      stabilize_end<true>(g, hp, A);
    }
  }

  // Completes a push's second phase for the anchor A (protected in
  // hp.anchor, status == push_status<Left>()): fix the neighbor's outward
  // link to point at the new end node, then install A's STABLE twin.
  // Every early return is safe: it fires only when the anchor has already
  // moved on, or when another thread is provably past this point and will
  // install the twin (or a future operation's help pass will).
  template <bool Left>
  void stabilize_end(Guard& g, Hp& hp, Anchor* A) {
    Handle& h = g.handle();
    Node* end = end_of<Left>(A);
    hp.node.publish(end);
    if (anchor_.load(std::memory_order_seq_cst) != AMP(A) || !g.valid())
      return;  // already stabilized
    // Non-null: a push-status anchor is only ever installed over a
    // non-empty deque, and the end's inward link was set pre-install.
    Node* neighbor = inward<Left>(end).load(std::memory_order_seq_cst).ptr();
    assert(neighbor != nullptr);
    hp.prev.publish(neighbor);
    if (anchor_.load(std::memory_order_seq_cst) != AMP(A) || !g.valid())
      return;
    MP out = outward<Left>(neighbor).load(std::memory_order_seq_cst);
    if (out.ptr() != end) {
      if (anchor_.load(std::memory_order_seq_cst) != AMP(A)) return;
      if (!outward<Left>(neighbor).compare_exchange_strong(
              out, MP(end), std::memory_order_seq_cst,
              std::memory_order_relaxed)) {
        return;  // another helper fixed it and proceeds to the twin CAS
      }
    }
    Anchor* na = make_anchor<Left>(h, end, other_end_of<Left>(A),
                                   Status::kStable);
    AMP expected(A);
    if (anchor_.compare_exchange_strong(expected, AMP(na),
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
      h.retire(A);
    } else {
      h.dealloc_unpublished(na);
    }
  }

  alignas(kCacheLine) ALink anchor_{AMP{}};
  Smr& smr_;
};

}  // namespace scot
