// The Michael-Scott lock-free FIFO queue (PODC 1996), written against the
// guard API v2 with the paper's recovery discipline applied to its shape.
//
// A queue has no traversal to recover: both anchors (head_, tail_) are
// single links, so the SCOT discipline degenerates to protect-and-validate
// on the anchor itself (DESIGN.md §11).  Restart means "re-read the
// anchor"; the recovery optimization survives in one place — a dequeuer or
// enqueuer that finds the tail lagging *helps* swing it forward and resumes
// from its already-protected snapshot instead of re-reading, which is
// counted in ds_recoveries exactly like the list's §3.2.1 escapes.
//
// Protection roles (ascending slot order): hp.head = the node being
// dequeued (last-safe), hp.next = its successor (first-unsafe).  Enqueue
// only ever dereferences the tail, so it reuses slot 0.
//
// Reclamation-compatibility argument, per scheme family:
//  * HP/HPopt/HE/IBR: protect() internally re-reads the anchor until the
//    published value is stable, so a protected node is linked at protection
//    time and cannot have been reclaimed.  Dequeue re-validates
//    `head_ == hd` after protecting the successor (the predecessor-link
//    validation of §3.2 with head_ as the predecessor).
//  * EBR/NR: protection is free; validation still bounds wasted work.
//  * Hyaline: guard.valid() is polled after every protect; an invalidated
//    operation revalidates and restarts from the anchor.
// ABA on the head/tail CAS is impossible while the expected node is
// protected: a protected node cannot be reclaimed, hence not recycled.
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
class MSQueue {
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
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 2;

  // Slot roles in index (= ascending-dup) order.
  struct Hp {
    NodeSlot head, next;
    explicit Hp(Guard& g)
        : head(g.template slot<Node>()), next(g.template slot<Node>()) {}
  };

  explicit MSQueue(Smr& smr) : smr_(smr) {
    require_slots(smr_, kSlotsRequired);
    auto h = scoped_handle(smr_);
    Node* dummy = h->template alloc<Node>();
    head_.store(MP(dummy), std::memory_order_release);
    tail_.store(MP(dummy), std::memory_order_release);
  }

  ~MSQueue() {
    // Single-threaded teardown: the dummy plus every still-linked node.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = head_.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  MSQueue(const MSQueue&) = delete;
  MSQueue& operator=(const MSQueue&) = delete;

  void enqueue(Handle& h, const T& value) {
    Guard guard(h);
    Hp hp(guard);
    Node* n = h.template alloc<Node>(value);
    for (;;) {
      Protected<Node> t = hp.head.protect(tail_);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      const MP next = t->next.load(std::memory_order_seq_cst);
      if (next.ptr() == nullptr) {
        MP expected{};
        if (t->next.compare_exchange_strong(expected, MP(n),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
          // Swing the tail; losing this CAS just means someone helped.
          MP te(t.get());
          tail_.compare_exchange_strong(te, MP(n), std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
          return;
        }
        guard.restart();  // lost the link race; re-read the anchor
      } else {
        // Lagging tail: help swing it and resume from the protected
        // snapshot — the queue-shaped recovery escape (no anchor re-read
        // needed; the CAS result tells us everything the re-read would).
        MP te(t.get());
        tail_.compare_exchange_strong(te, next.clean(),
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
        ++h.ds_recoveries;
      }
    }
  }

  std::optional<T> dequeue(Handle& h) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      Protected<Node> hd = hp.head.protect(head_);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      Protected<Node> next = hp.next.protect(hd->next);
      if (!guard.valid()) {
        guard.restart();
        continue;
      }
      // Predecessor-link validation (§3.2, head_ as predecessor): both the
      // empty verdict and the value read below are only meaningful if hd
      // was still the head when its successor was protected.
      if (head_.load(std::memory_order_seq_cst) != MP(hd.get())) {
        guard.restart();
        continue;
      }
      if (next.get() == nullptr) return std::nullopt;  // empty
      // Help a tail lagging at the dummy before excising it.
      MP t = tail_.load(std::memory_order_seq_cst);
      if (t.ptr() == hd.get()) {
        tail_.compare_exchange_strong(t, MP(next.get()),
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
        ++h.ds_recoveries;
      }
      // Read the value before the head CAS: next is protected, and a
      // node's value is immutable after publication, so the read is safe
      // even if another dequeuer wins and next becomes the new dummy.
      T value = next->value;
      MP expected(hd.get());
      if (head_.compare_exchange_strong(expected, MP(next.get()),
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        h.retire(hd.get());  // the old dummy; unlinked by the CAS
        return value;
      }
      guard.restart();
    }
  }

  // Single-threaded size (tests / teardown only); excludes the dummy.
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    c = c->next.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

 private:
  alignas(kCacheLine) Link head_{MP{}};
  alignas(kCacheLine) Link tail_{MP{}};
  Smr& smr_;
};

}  // namespace scot
