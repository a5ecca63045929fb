// The Harris-Michael lock-free linked list (Michael, SPAA 2002).
//
// This is the paper's *compatible baseline*: logical deletion followed by
// **eager** physical removal.  Whenever a traversal encounters a logically
// deleted node it must unlink it before proceeding (and restart from the
// head if the unlink CAS fails).  That discipline is what makes the list
// safe under HP/HE/IBR/Hyaline-1S without SCOT — and it is also why the
// list pays extra CAS traffic and restarts under contention (Table 2 of the
// paper reports restart rates up to 8.19% at 256 threads).
//
// Protection roles (API v2 guard slots):
//   hp.next = next, hp.curr = curr, hp.prev = prev.
// find() advances by renaming roles (ProtectionSlot::rotate_roles /
// swap_roles), never by copying a protection into another slot, so the
// ascending-dup discipline has nothing to order (DESIGN.md §4).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/align.hpp"
#include "core/list_common.hpp"
#include "core/marked_ptr.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

template <class Key, class Value, SmrDomain Smr,
          class Compare = std::less<Key>>
class HarrisMichaelList {
 public:
  using Node = ListNode<Key, Value>;
  using MP = marked_ptr<Node>;
  // Link words live in pool-recycled nodes, so they are StableAtomic (the
  // head is one too: traversal code points at head and node links alike).
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 3;

  // Slot roles in initial index order; find() renames them in a local copy.
  struct Hp {
    NodeSlot next, curr, prev;
    explicit Hp(Guard& g)
        : next(g.template slot<Node>()),
          curr(g.template slot<Node>()),
          prev(g.template slot<Node>()) {}
  };

  explicit HarrisMichaelList(Smr& smr, Compare cmp = {})
      : smr_(smr), cmp_(cmp) {
    require_slots(smr_, kSlotsRequired);
    auto h = scoped_handle(smr_);
    Node* tail = h->template alloc<Node>(Key{}, Value{}, 1);
    head_.store(MP(tail), std::memory_order_release);
  }

  ~HarrisMichaelList() {
    // Single-threaded teardown: free every node still linked (including
    // logically deleted but not yet unlinked ones; retired nodes are
    // unlinked by construction and owned by the SMR domain).
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = head_.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  HarrisMichaelList(const HarrisMichaelList&) = delete;
  HarrisMichaelList& operator=(const HarrisMichaelList&) = delete;

  // Inserts `key`; returns false if already present.
  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    Guard guard(h);
    Hp hp(guard);
    Node* n = h.template alloc<Node>(key, value, 0);
    for (;;) {
      Position pos = find(guard, hp, key);
      if (pos.found) {
        h.dealloc_unpublished(n);
        return false;
      }
      n->next.store(MP(pos.curr), std::memory_order_relaxed);
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, MP(n),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Removes `key`; returns false if absent.
  bool erase(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      Position pos = find(guard, hp, key);
      if (!pos.found) return false;
      MP next = pos.next;  // unmarked: find() only returns live nodes
      assert(!next.marked());
      // Logical deletion: mark curr's next pointer.
      if (!pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
        continue;  // lost a race on curr; retry from find
      }
      // One eager unlink attempt; on failure the next traversal cleans up.
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, next.clean(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        h.retire(pos.curr);
      } else {
        find(guard, hp, key);  // help unlink (Michael's cleanup pass)
      }
      return true;
    }
  }

  bool contains(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    return find(guard, hp, key).found;
  }

  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    Position pos = find(guard, hp, key);
    if (!pos.found) return std::nullopt;
    return pos.curr->value;  // still protected by find()'s curr role
  }

  // Single-threaded size (tests / teardown only).
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0 &&
          !c->next.load(std::memory_order_acquire).marked())
        ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

 private:
  struct Position {
    Link* prev;
    Node* curr;
    MP next;
    bool found;
  };

  // Michael's Find: eagerly unlinks every logically deleted node it meets.
  // The returned prev node, curr and next stay protected in whichever slots
  // their roles ended on, until the guard ends or the next find().
  Position find(Guard& g, const Hp& roles, const Key& search_key) {
    Handle& h = g.handle();
    // Roles and key are locals so they stay in registers across the light
    // barrier's compiler clobber; every retry re-protects each role, so any
    // slot assignment the renames left is a valid start.
    Hp hp = roles;
    const TraversalKey<Key> key = search_key;
    for (;;) {
      Link* prev = &head_;
      MP curr_m = hp.curr.protect(head_);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      Node* curr = curr_m.ptr();
      bool retry = false;
      while (curr != nullptr) {
        MP next = hp.next.protect(curr->next);
        if (!g.valid()) {
          retry = true;
          break;
        }
        // Validate that curr is still linked and live; catches concurrent
        // insertions at prev and removals of curr.
        if (prev->load(std::memory_order_seq_cst) != MP(curr)) {
          retry = true;
          break;
        }
        if (next.marked()) {
          // Eager physical removal of the logically deleted curr.
          MP expected(curr);
          if (!prev->compare_exchange_strong(expected, next.clean(),
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
            retry = true;
            break;
          }
          h.retire(curr);
          curr = next.ptr();
          hp.curr.swap_roles(hp.next);  // next reuses the retired node's slot
          continue;
        }
        if (!node_less_than_key(curr, key, cmp_)) {
          return {prev, curr, next, node_equals_key(curr, key, cmp_)};
        }
        // prev takes curr's slot, curr takes next's, and next reuses the
        // old prev's.
        prev = &curr->next;
        curr = next.ptr();
        hp.prev.rotate_roles(hp.curr, hp.next);
      }
      if (!retry) {
        // Fell off the list: with the tail sentinel this is unreachable,
        // but kept for structural robustness.
        return {prev, nullptr, MP{}, false};
      }
      restart(g);
    }
  }

  void restart(Guard& g) {
    ++g.handle().ds_restarts;
    g.revalidate();
  }

  alignas(kCacheLine) Link head_{MP{}};
  Smr& smr_;
  [[no_unique_address]] Compare cmp_;
};

}  // namespace scot
