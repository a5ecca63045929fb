// The Natarajan-Mittal lock-free external binary search tree (PPoPP 2014)
// with **SCOT** traversal protection (paper §3.3).
//
// Structure recap.  All keys live in leaves; internal nodes carry routing
// keys.  Deletion *flags* the edge from the parent to the victim leaf, then
// *tags* the sibling edge (freezing it), and finally prunes the whole
// chain of tagged edges with a single CAS on the ancestor's child pointer
// (the "successor" edge — the last untagged edge on the path).  Like
// Harris' list, traversals walk optimistically across tagged edges, which
// is fundamentally unsafe under HP/HE/IBR/Hyaline-1S.
//
// SCOT protection roles (paper §3.3; API v2 guard slots in index order):
//   hp.child  = current child being followed   hp.succ = successor (zone
//   hp.leaf   = current leaf candidate                    entrance)
//   hp.parent = parent of the leaf             hp.anc  = ancestor
//   hp.target = delete()'s flagged target
// All dup_from() calls copy toward higher indices (ascending-dup
// discipline, asserted by ProtectionSlot).
//
// The dangerous zone is the run of tagged edges between the successor and
// the parent.  At every step taken through an edge that carries any bit
// (tag — chain interior; or flag — the final hop onto a leaf that may be
// pruned together with its parent), the traversal re-validates that the
// ancestor still points at the successor before dereferencing the new node.
// A chain can only be pruned by the CAS on that ancestor edge, so a
// successful validation proves the just-protected node was still linked.
// On failure the operation restarts; per §3.2.2 the recovery optimization
// does not pay off for trees, so none is attempted.
//
// Sentinels.  R -> { leaf_a, S }, S -> { leaf_b, min_leaf }.  The three
// sentinel leaves stand for -infinity and are told from real leaves by
// address, never by key, so every Key value is a usable key.  All user
// data lives in S.right's subtree, whose leftmost leaf is always min_leaf.
// An insert at a leaf builds its internal node with key max(key, leaf);
// against min_leaf that is the real key, so no internal node ever carries
// an infinite key and routing at an internal node is one comparison.
// R and S are immortal: min_leaf matches no key, so it is never deleted
// and stays leftmost, hence S.right points at min_leaf or at an internal
// node, never straight at a real leaf.  No deletable leaf ever has R or S
// as its parent, so their edges are never flagged or tagged and the seek
// anchors are always live.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/align.hpp"
#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

template <class Key, class Value, SmrDomain Smr,
          class Compare = std::less<Key>>
class NatarajanMittalTree {
 public:
  // Child edges are StableAtomic: nodes are pool-recycled while stale
  // optimistic readers may still protect() through them, so (re)initialising
  // an edge must be an atomic store, not a plain constructor write
  // (DESIGN.md §4).
  struct Node : ReclaimNode {
    Key key;
    Value value;  // meaningful for leaves only
    StableAtomic<marked_ptr<Node>> left;
    StableAtomic<marked_ptr<Node>> right;

    Node(const Key& k, const Value& v)
        : key(k),
          value(v),
          left(marked_ptr<Node>{}),
          right(marked_ptr<Node>{}) {}
  };
  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 6;

  // Slot roles in index (= ascending-dup) order.
  struct Hp {
    NodeSlot child, leaf, parent, succ, anc, target;
    explicit Hp(Guard& g)
        : child(g.template slot<Node>()),
          leaf(g.template slot<Node>()),
          parent(g.template slot<Node>()),
          succ(g.template slot<Node>()),
          anc(g.template slot<Node>()),
          target(g.template slot<Node>()) {}
  };

  explicit NatarajanMittalTree(Smr& smr, Compare cmp = {})
      : smr_(smr), cmp_(cmp) {
    require_slots(smr_, kSlotsRequired);
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* leaf_a = h.template alloc<Node>(Key{}, Value{});
    Node* leaf_b = h.template alloc<Node>(Key{}, Value{});
    min_leaf_ = h.template alloc<Node>(Key{}, Value{});
    s_ = h.template alloc<Node>(Key{}, Value{});
    s_->left.store(MP(leaf_b), std::memory_order_relaxed);
    s_->right.store(MP(min_leaf_), std::memory_order_relaxed);
    r_ = h.template alloc<Node>(Key{}, Value{});
    r_->left.store(MP(leaf_a), std::memory_order_relaxed);
    r_->right.store(MP(s_), std::memory_order_release);
  }

  ~NatarajanMittalTree() {
    // Single-threaded teardown; every linked node has exactly one parent,
    // so an explicit-stack walk frees each node once.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    std::vector<Node*> stack{r_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (Node* l = n->left.load(std::memory_order_relaxed).ptr())
        stack.push_back(l);
      if (Node* r = n->right.load(std::memory_order_relaxed).ptr())
        stack.push_back(r);
      h.dealloc_unpublished(n);
    }
  }

  NatarajanMittalTree(const NatarajanMittalTree&) = delete;
  NatarajanMittalTree& operator=(const NatarajanMittalTree&) = delete;

  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    Guard guard(h);
    Hp hp(guard);
    Node* new_leaf = nullptr;
    Node* new_internal = nullptr;
    for (;;) {
      SeekRecord s;
      seek(guard, hp, key, s);
      const bool match = leaf_matches(s.leaf, key);
      if (match && !s.leaf_edge.flagged()) {
        if (new_leaf != nullptr) {
          h.dealloc_unpublished(new_leaf);
          h.dealloc_unpublished(new_internal);
        }
        return false;  // key already present
      }
      if (s.leaf_edge.bits() != 0) {
        // The edge is frozen by a pending deletion; help finish it, then
        // retry (this also covers match && flagged: the key is logically
        // gone, and once the chain is pruned the insert can proceed).
        cleanup(h, key, s);
        continue;
      }
      if (new_leaf == nullptr) {
        new_leaf = h.template alloc<Node>(key, value);
        new_internal = h.template alloc<Node>(Key{}, Value{});
      }
      // Route the new internal node: its key is the larger of the two, the
      // smaller goes left.  min_leaf is -infinity, tested by address; any
      // other s.leaf is protected, so reading its immutable key is safe even
      // if it lost a race meanwhile (the CAS below would then fail).
      if (s.leaf != min_leaf_ && cmp_(key, s.leaf->key)) {
        new_internal->key = s.leaf->key;
        new_internal->left.store(MP(new_leaf), std::memory_order_relaxed);
        new_internal->right.store(MP(s.leaf), std::memory_order_relaxed);
      } else {
        new_internal->key = key;
        new_internal->left.store(MP(s.leaf), std::memory_order_relaxed);
        new_internal->right.store(MP(new_leaf), std::memory_order_relaxed);
      }
      MP expected = MP(s.leaf);
      if (s.leaf_field->compare_exchange_strong(expected, MP(new_internal),
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
        return true;
      }
      // CAS failed: if the edge now carries deletion bits for the same
      // leaf, help prune before retrying.
      MP now = s.leaf_field->load(std::memory_order_acquire);
      if (now.ptr() == s.leaf && now.bits() != 0) cleanup(h, key, s);
    }
  }

  bool erase(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    bool injected = false;
    Node* target = nullptr;
    for (;;) {
      SeekRecord s;
      seek(guard, hp, key, s);
      if (!injected) {
        // --- injection phase ---
        if (!leaf_matches(s.leaf, key)) return false;
        if (s.leaf_edge.flagged()) {
          // A concurrent delete owns this key; the flag CAS is delete's
          // linearization point, so the key is already logically gone.
          cleanup(h, key, s);
          return false;
        }
        if (s.leaf_edge.tagged()) {
          // The leaf survives as a sibling of a pending chain removal;
          // help prune, then retry the injection.
          cleanup(h, key, s);
          continue;
        }
        MP expected = MP(s.leaf);
        if (!s.leaf_field->compare_exchange_strong(
                expected, MP(s.leaf).with_flag(), std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
          continue;  // lost a race; re-seek and re-evaluate
        }
        // Flag succeeded: this operation owns the deletion.  Keep the
        // target protected across re-seeks so the address comparison below
        // can never be fooled by recycling.
        injected = true;
        target = s.leaf;
        hp.target.dup_from(hp.leaf);
        if (cleanup(h, key, s)) return true;
      } else {
        // --- cleanup phase ---
        if (s.leaf != target) return true;  // a helper pruned the chain
        if (cleanup(h, key, s)) return true;
      }
    }
  }

  bool contains(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    SeekRecord s;
    seek(guard, hp, key, s);
    return leaf_matches(s.leaf, key) && !s.leaf_edge.flagged();
  }

  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    SeekRecord s;
    seek(guard, hp, key, s);
    if (!leaf_matches(s.leaf, key) || s.leaf_edge.flagged())
      return std::nullopt;
    return s.leaf->value;  // protected by hp.leaf
  }

  // --- single-threaded observers (tests / teardown) ----------------------

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    visit_leaves(r_, false, [&](const Node* leaf, bool flagged) {
      if (!is_sentinel_leaf(leaf) && !flagged) ++n;
    });
    return n;
  }

  // Structural invariant checker used by the tests: external-tree shape,
  // in-order leaf ordering, and flag-implies-leaf placement.
  bool check_structure_unsafe() const {
    bool ok = true;
    const Node* last = nullptr;
    check_node(r_, &ok, &last);
    return ok;
  }

 private:
  struct SeekRecord {
    Node* ancestor;
    Node* successor;
    Node* parent;
    Node* leaf;
    Link* succ_field;  // ancestor's child edge toward successor
    MP succ_expect;    // its expected (clean) value
    Link* leaf_field;  // parent's child edge toward leaf
    MP leaf_edge;      // its value as read (bits included)
  };

  // A seek ends only at min_leaf or a real leaf (the sentinel discussion
  // above), so min_leaf is the one sentinel to tell apart, by address.
  bool leaf_matches(const Node* leaf, const Key& key) const {
    return leaf != min_leaf_ && !cmp_(leaf->key, key) && !cmp_(key, leaf->key);
  }
  // Routing at an internal node, whose key is always a real key.
  Link* child_field(Node* n, const Key& key) const {
    return cmp_(key, n->key) ? &n->left : &n->right;
  }

  // SCOT-protected seek (paper §3.3).
  void seek(Guard& g, Hp& hp, const Key& key, SeekRecord& s) {
    for (g.revalidate(); !try_seek(g, hp, key, s);) g.restart();
  }

  bool try_seek(Guard& g, Hp& hp, const Key& key, SeekRecord& s) {
    // Anchors are immortal (see the sentinel discussion above), so plain
    // publication suffices.
    hp.anc.publish(r_);
    hp.succ.publish(s_);
    hp.parent.publish(s_);
    s.ancestor = r_;
    s.successor = s_;
    s.parent = s_;
    s.succ_field = &r_->right;
    s.succ_expect = MP(s_);
    s.leaf_field = &s_->right;
    s.leaf_edge = hp.leaf.protect(s_->right);
    if (!g.valid()) return false;
    s.leaf = s.leaf_edge.ptr();  // min_leaf at minimum
    for (;;) {
      // Route one level down.  Dereferencing s.leaf here is safe: it was
      // protected by the previous protect() and, when its incoming edge
      // carried deletion bits, re-validated below before this iteration.
      // A leaf has no children, so the side routing picks there (even
      // min_leaf's, whose key is no real key) does not matter.
      Link* cf = child_field(s.leaf, key);
      MP child_edge = hp.child.protect(*cf);
      if (!g.valid()) return false;
      Node* child = child_edge.ptr();
      if (child == nullptr) break;  // s.leaf is an actual leaf
      // Advance the seek record (original seek, with SCOT dups).
      if (!s.leaf_edge.tagged()) {
        // Untagged edge into s.leaf: it becomes the new successor and its
        // parent the new ancestor (entrance of any following zone).
        hp.anc.dup_from(hp.parent);
        hp.succ.dup_from(hp.leaf);
        s.ancestor = s.parent;
        s.successor = s.leaf;
        s.succ_field = s.leaf_field;
        s.succ_expect = s.leaf_edge.clean();
      }
      hp.parent.dup_from(hp.leaf);
      hp.leaf.dup_from(hp.child);
      s.parent = s.leaf;
      s.leaf = child;
      s.leaf_field = cf;
      s.leaf_edge = child_edge;
      // SCOT validation: the edge we just took carries a deletion bit
      // (tag: chain interior; flag: final hop to a dying leaf), so the
      // new node may belong to a chain whose pruning races with us.  It
      // is safe exactly as long as the ancestor still points at the
      // successor — the only CAS that can free the chain targets that
      // edge.
      if (s.leaf_edge.bits() != 0 &&
          s.succ_field->load(std::memory_order_seq_cst) != s.succ_expect) {
        return false;
      }
    }
    return true;
  }

  // Prunes the chain of tagged edges hanging below the seek record's
  // successor (original CleanUp + SCOT-owned retirement of the chain).
  // Returns true if this call performed the pruning CAS.
  bool cleanup(Handle& h, const Key& key, SeekRecord& s) {
    Node* parent = s.parent;
    Link* child_f = child_field(parent, key);
    Link* sibling_f = child_f == &parent->left ? &parent->right : &parent->left;
    MP child_val = child_f->load(std::memory_order_seq_cst);
    if (!child_val.flagged()) {
      // The flagged edge is the other one: we are helping a deletion whose
      // victim is the sibling of the node our key routes to.
      sibling_f = child_f;
    }
    // Freeze the sibling edge.  Fields of already-pruned (frozen) parents
    // keep their bits, so this loop terminates; a write to such a field is
    // harmless (the node is unlinked but hazard-protected).
    MP sib = sibling_f->load(std::memory_order_seq_cst);
    while (!sib.tagged()) {
      if (sibling_f->compare_exchange_weak(sib, sib.with_tag(),
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
        sib = sib.with_tag();
        break;
      }
    }
    assert(child_f->load(std::memory_order_relaxed).bits() != 0 ||
           sibling_f->load(std::memory_order_relaxed).bits() != 0);
    // Prune: swing the ancestor's successor edge to the surviving sibling,
    // propagating the sibling's flag (a flagged sibling is itself a dying
    // leaf whose own deletion continues at the ancestor level).
    Node* survivor = sib.ptr();
    MP expected = s.succ_expect.clean();
    MP replacement = sib.flagged() ? MP(survivor).with_flag() : MP(survivor);
    if (s.succ_field->compare_exchange_strong(expected, replacement,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
      retire_chain(h, s.successor, survivor);
      return true;
    }
    return false;
  }

  // Retires the pruned chain: every internal node from the successor down
  // along tagged edges, plus the flagged leaf hanging off each of them.
  // The surviving sibling (now the ancestor's child) is not touched.
  void retire_chain(Handle& h, Node* from, Node* survivor) {
    Node* n = from;
    for (;;) {
      MP l = n->left.load(std::memory_order_relaxed);
      MP r = n->right.load(std::memory_order_relaxed);
      MP cont, dead;
      if (l.tagged() && !r.tagged()) {
        cont = l;
        dead = r;
      } else if (r.tagged() && !l.tagged()) {
        cont = r;
        dead = l;
      } else {
        // Both edges tagged: two deletions met at this node; the survivor
        // pointer disambiguates the continuation.
        assert(l.tagged() && r.tagged());
        if (l.ptr() == survivor) {
          cont = l;
          dead = r;
        } else {
          cont = r;
          dead = l;
        }
      }
      assert(dead.flagged() && "non-continuation edge must be a dying leaf");
      h.retire(dead.ptr());
      h.retire(n);
      if (cont.ptr() == survivor) return;
      n = cont.ptr();
    }
  }

  template <class F>
  void visit_leaves(const Node* n, bool flagged, F&& f) const {
    const MP l = n->left.load(std::memory_order_acquire);
    if (l.ptr() == nullptr) {
      f(n, flagged);
      return;
    }
    const MP r = n->right.load(std::memory_order_acquire);
    visit_leaves(l.ptr(), l.flagged(), f);
    visit_leaves(r.ptr(), r.flagged(), f);
  }

  // In-order walk checking: external shape (both children or neither), flag
  // only on edges to leaves, and non-decreasing leaf order with the
  // sentinel leaves at -infinity.
  void check_node(const Node* n, bool* ok, const Node** last) const {
    const MP l = n->left.load(std::memory_order_acquire);
    const MP r = n->right.load(std::memory_order_acquire);
    if ((l.ptr() == nullptr) != (r.ptr() == nullptr)) {
      *ok = false;  // not an external tree
      return;
    }
    if (l.ptr() == nullptr) {
      if (*last != nullptr && node_less(n, *last)) *ok = false;
      *last = n;
      return;
    }
    if (l.flagged() &&
        l.ptr()->left.load(std::memory_order_acquire).ptr() != nullptr)
      *ok = false;
    if (r.flagged() &&
        r.ptr()->left.load(std::memory_order_acquire).ptr() != nullptr)
      *ok = false;
    check_node(l.ptr(), ok, last);
    check_node(r.ptr(), ok, last);
  }

  bool node_less(const Node* a, const Node* b) const {
    return !is_sentinel_leaf(b) &&
           (is_sentinel_leaf(a) || cmp_(a->key, b->key));
  }

  // R's and S's left leaves never change, so the checkers read them there.
  bool is_sentinel_leaf(const Node* n) const {
    return n == min_leaf_ ||
           n == r_->left.load(std::memory_order_relaxed).ptr() ||
           n == s_->left.load(std::memory_order_relaxed).ptr();
  }

  Node* r_ = nullptr;         // root sentinel
  Node* s_ = nullptr;         // second sentinel, over every real key
  Node* min_leaf_ = nullptr;  // leftmost leaf of S.right's subtree
  Smr& smr_;
  [[no_unique_address]] Compare cmp_;
};

}  // namespace scot
