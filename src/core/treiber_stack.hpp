// The Treiber lock-free LIFO stack (IBM TR RJ5118, 1986), written against
// the guard API v2.
//
// The stack is the degenerate case of the paper's discipline: one anchor
// (top_), zero-length traversals, so "restart" and "recover" coincide — a
// failed pop CAS re-reads the anchor, which *is* the whole traversal
// (DESIGN.md §11).  There is no recovery escape to count; ds_recoveries
// stays 0 by construction and the bench tables report it as such.
//
// push() needs no protection at all: it never dereferences a shared node
// (the top is only CAS-compared), so it skips the guard entirely and pays
// zero fences beyond the linking CAS.  pop() protects the top through one
// slot — protect() internally re-reads until the published value is stable,
// so the subsequent `top->next` read is on a node that cannot have been
// reclaimed — and the pop CAS is ABA-safe for the same reason: the expected
// node is protected, hence cannot have been recycled by the pool.
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
class TreiberStack {
 public:
  struct Node : ReclaimNode {
    T value;
    StableAtomic<marked_ptr<Node>> next;
    explicit Node(const T& v = {}) : value(v), next(marked_ptr<Node>{}) {}
  };

  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;

  static constexpr unsigned kSlotsRequired = 1;

  explicit TreiberStack(Smr& smr) : smr_(smr) {
    require_slots(smr_, kSlotsRequired);
  }

  ~TreiberStack() {
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = top_.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  TreiberStack(const TreiberStack&) = delete;
  TreiberStack& operator=(const TreiberStack&) = delete;

  void push(Handle& h, const T& value) {
    Node* n = h.template alloc<Node>(value);
    MP top = top_.load(std::memory_order_acquire);
    for (;;) {
      n->next.store(top, std::memory_order_relaxed);
      // Release on success publishes n->value and n->next to poppers.
      if (top_.compare_exchange_weak(top, MP(n), std::memory_order_release,
                                     std::memory_order_acquire)) {
        return;
      }
      // Contended-CAS retry, not a traversal restart: nothing was
      // protected or validated, so ds_restarts deliberately stays quiet.
    }
  }

  std::optional<T> pop(Handle& h) {
    Guard guard(h);
    auto slot = guard.template slot<Node>();
    for (;;) {
      Protected<Node> t = slot.protect(top_);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      if (t.get() == nullptr) return std::nullopt;  // empty
      // Safe: t is protected, and a popped node is never re-pushed (push
      // always allocates), so t->next is immutable while t is linked.
      const MP next = t->next.load(std::memory_order_acquire);
      MP expected(t.get());
      if (top_.compare_exchange_strong(expected, next.clean(),
                                       std::memory_order_seq_cst,
                                       std::memory_order_relaxed)) {
        T value = t->value;
        h.retire(t.get());
        return value;
      }
      guard.restart();  // anchor moved; the re-read is the whole traversal
    }
  }

  // Single-threaded size (tests / teardown only).
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = top_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

 private:
  alignas(kCacheLine) Link top_{MP{}};
  Smr& smr_;
};

}  // namespace scot
