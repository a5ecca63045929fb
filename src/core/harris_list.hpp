// Harris' lock-free linked list (Harris, DISC 2001) with **SCOT** — Safe
// Concurrent Optimistic Traversals (the paper's core contribution, §3.2).
//
// Every operation walks with scot_find (core/scot_find.hpp), the one SCOT
// Do_Find of paper Figure 5, from the head link and ordered by the key
// (ListOrder; the tail sentinel settles every walk).  The list's Traits
// pick the walk's variants (Figure 5 left/right, §3.2.1 recovery) and add
// kWaitFree, the §3.4 wait-free Search: a bounded fast path, then a slow
// path that every Insert/Delete helps (core/wait_free.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/align.hpp"
#include "core/list_common.hpp"
#include "core/marked_ptr.hpp"
#include "core/scot_find.hpp"
#include "core/wait_free.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

template <class Key, class Value, SmrDomain Smr,
          class Traits = HarrisListTraits, class Compare = std::less<Key>>
class HarrisList {
 public:
  using Node = ListNode<Key, Value>;
  using MP = marked_ptr<Node>;
  // Link words live in pool-recycled nodes, so they are StableAtomic (the
  // head is one too: traversal code points at head and node links alike).
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;

  static constexpr unsigned kSlotsRequired = 4;

  using Hp = ScotRoles<Handle, Node>;

  explicit HarrisList(Smr& smr, Compare cmp = {}) : smr_(smr), cmp_(cmp) {
    require_slots(smr_, kSlotsRequired);
    auto h = scoped_handle(smr_);
    Node* tail = h->template alloc<Node>(Key{}, Value{}, 1);
    head_.store(MP(tail), std::memory_order_release);
    if constexpr (Traits::kWaitFree) {
      wf_ = std::make_unique<WfHelpRegistry<Key>>(smr_.config().max_threads);
    }
  }

  ~HarrisList() {
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = head_.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  // Inserts `key`; returns false if already present.
  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    Guard guard(h);
    Hp hp(guard);
    Node* n = h.template alloc<Node>(key, value, 0);
    for (;;) {
      if constexpr (Traits::kWaitFree) help_others(guard, hp);
      const Position pos = walk(guard, hp, key, /*unlink=*/true);
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
      if constexpr (Traits::kWaitFree) help_others(guard, hp);
      const Position pos = walk(guard, hp, key, /*unlink=*/true);
      if (!pos.found) return false;
      MP next = pos.next;
      assert(!next.marked());
      // Logical deletion (Figure 3, L21): mark curr's own next field.
      if (!pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
        continue;
      }
      // One optimistic unlink attempt (Figure 3, L22); failure leaves the
      // node for a later traversal's chain removal.
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, next.clean(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        h.retire(pos.curr);
      }
      return true;
    }
  }

  // Membership test.  Lock-free by default; wait-free with
  // Traits::kWaitFree (fast path + helping slow path, §3.4).
  bool contains(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    if constexpr (Traits::kWaitFree) {
      const Position pos = walk(guard, hp, key, /*unlink=*/false,
                                BoundedControl{Traits::kFastPathRestarts});
      if (pos.outcome == FindOutcome::kOk) return pos.found;
      const std::uint64_t tag = wf_->request_help(h.tid(), key);
      return slow_search(guard, hp, key, tag, h.tid());
    } else {
      return walk(guard, hp, key, /*unlink=*/false).found;
    }
  }

  // Lookup with value copy (lock-free path only; values are immutable once
  // inserted).
  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    const Position pos = walk(guard, hp, key, /*unlink=*/false);
    if (!pos.found) return std::nullopt;
    return pos.curr->value;  // still protected by the walk's curr role
  }

  // Test-only: performs the logical deletion of `key` (marking the node's
  // next pointer) while deliberately skipping the physical unlink attempt.
  // This builds chains of logically deleted nodes deterministically, which
  // the dangerous-zone tests traverse and prune.  Not part of the public
  // set semantics.
  bool debug_mark_only(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      const Position pos = walk(guard, hp, key, /*unlink=*/false);
      if (!pos.found) return false;
      MP next = pos.next;
      if (pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Test-only: access the wait-free help registry (requires
  // Traits::kWaitFree).
  WfHelpRegistry<Key>& debug_wf_registry() {
    static_assert(Traits::kWaitFree);
    return *wf_;
  }

  // Single-threaded observers for tests.
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0 && !c->next.load(std::memory_order_acquire).marked())
        ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

  // Number of nodes physically in the list (marked chains included).
  std::size_t physical_size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0) ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

 private:
  using Position = ScotPosition<Node>;

  // The SCOT walk from the head, ordered by `key`.
  template <class Control = DefaultControl>
  Position walk(Guard& g, const Hp& hp, const Key& key, bool unlink,
                Control control = {}) {
    return scot_find<Traits>(g, hp, head_, ListOrder<Key, Compare>{key, cmp_},
                             unlink, control);
  }

  // --- wait-free traversal machinery (§3.4) ------------------------------

  // Called by Insert/Delete once per retry loop: serve at most one pending
  // help request (Figure 7, Help_Threads).
  void help_others(Guard& g, Hp& hp) {
    Key key;
    std::uint64_t tag;
    unsigned tid;
    if (wf_->poll_for_work(g.handle().tid(), &key, &tag, &tid)) {
      slow_search(g, hp, key, tag, tid);
    }
  }

  // Figure 7, Slow_Search: the traversal itself is the SCOT Do_Find; every
  // iteration polls the helpee's record for an externally published result.
  bool slow_search(Guard& g, Hp& hp, const Key& key, std::uint64_t tag,
                   unsigned help_tid) {
    const Position pos = walk(g, hp, key, /*unlink=*/false,
                              HelpControl<Key>{wf_.get(), help_tid, tag});
    switch (pos.outcome) {
      case FindOutcome::kExternalTrue:
        return true;
      case FindOutcome::kExternalFalse:
        return false;
      case FindOutcome::kOk:
        return wf_->publish_result(help_tid, tag, pos.found);
      case FindOutcome::kAborted:
        break;  // unreachable: HelpControl never aborts
    }
    assert(false && "slow_search: unexpected outcome");
    return false;
  }

  alignas(kCacheLine) Link head_{MP{}};
  Smr& smr_;
  [[no_unique_address]] Compare cmp_;
  std::unique_ptr<WfHelpRegistry<Key>> wf_;
};

}  // namespace scot
