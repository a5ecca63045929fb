// Intrusive metadata shared by every SMR scheme in the library.
//
// All nodes managed by a reclamation domain derive from `ReclaimNode`, which
// is two words: the retire era and one link.  Everything else the library
// keeps per node lives in the 16-byte allocation header in front of it, so a
// `ListNode<u64, u64>` plus its header fills exactly one 64-byte pool cell.
//
// Every per-node word is touched only by the *owner* of the node's current
// lifecycle stage (allocator, data structure, retire list, reclaimer), never
// concurrently, with one deliberate exception: the node's **birth era**.
//
// The birth era is read by Hyaline-1S `protect()` calls that may race with
// reclamation of the node (see the SCOT paper, Section 2.2.5: a thread must
// restart its operation when it observes a node born after the era it
// published on entry).  To make that read safe we keep the birth era *outside*
// the C++ node object, in the allocation header, which the node pool never
// scribbles over: freeing a node preserves its birth era, and reusing the
// memory stores the (strictly larger) new era before the node is published.
// A racing reader therefore observes either the old era or a newer one —
// both make its safety check conservative, never unsound.  The header's other
// two words are owner-only like the node's own; a stale reader never reads
// them (DESIGN.md §4).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace scot {

struct ReclaimNode {
  // Epoch/era at which the node was retired (EBR epoch, HE/IBR era).
  // Written once by retire(); read only by reclamation scans.
  std::uint64_t retire_era = 0;

  // Multi-purpose link, used at mutually exclusive lifecycle stages:
  //  - limbo-list and retire-mailbox link (every reclaiming scheme; for
  //    Hyaline the limbo list is the open batch, and a sealed batch keeps
  //    the chain — its slot lists link the batch handle's own entries, not
  //    nodes),
  //  - pool free-list link (after reclamation).
  ReclaimNode* smr_next = nullptr;
};
static_assert(sizeof(ReclaimNode) == 16);

// Lifecycle breadcrumbs (debug only; checked by tests and assertions).
enum : std::uint32_t {
  kNodeLive = 0x11111111u,
  kNodeRetired = 0x22222222u,
  kNodeFreed = 0x33333333u,
};

// The out-of-band allocation header described above, reached only through
// header_of().  `birth_era` must stay at a fixed offset from the node and
// must survive free/reuse cycles; so do the owner-only words after it.
struct AllocHeader {
  std::atomic<std::uint64_t> birth_era;
  // Size the pool handed out for this node (excluding the header), so that
  // type-erased reclamation paths (limbo scans, Hyaline batch frees) can
  // return the memory to the right size class.  Written by alloc.
  std::uint32_t alloc_size;
  // Lifecycle breadcrumb for assertions: written by alloc, retire and the
  // pool's free.
  std::uint32_t debug_state;
};
static_assert(sizeof(AllocHeader) == 16);

inline AllocHeader* header_of(void* node) noexcept {
  return reinterpret_cast<AllocHeader*>(static_cast<std::byte*>(node) -
                                        sizeof(AllocHeader));
}

inline const AllocHeader* header_of(const void* node) noexcept {
  return reinterpret_cast<const AllocHeader*>(
      static_cast<const std::byte*>(node) - sizeof(AllocHeader));
}

inline std::uint64_t birth_era_of(const ReclaimNode* n) noexcept {
  return header_of(n)->birth_era.load(std::memory_order_acquire);
}

// Customization point: extracts the raw ReclaimNode* that hazard slots should
// publish from a value loaded out of a data-structure link.  `marked_ptr`
// (src/core/marked_ptr.hpp) provides an overload found via ADL.
template <class T>
inline ReclaimNode* smr_raw(T* p) noexcept {
  return p ? static_cast<ReclaimNode*>(p) : nullptr;
}

}  // namespace scot
