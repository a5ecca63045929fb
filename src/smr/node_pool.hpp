// Type-stable node pool backing every reclamation domain.
//
// Purpose (see DESIGN.md §4):
//  1. *Type stability.*  Memory handed out for nodes is never returned to the
//     operating system while the domain lives, and the 16-byte allocation
//     header (birth era, size, breadcrumb) survives free/reuse.  Hyaline-1S
//     relies on this to read the birth era of a node that may have been
//     concurrently reclaimed.  Free writes two words of a cell: the node's
//     smr_next (the free-list link, at +8) and the header's debug_state.
//  2. *Scalability.*  The paper benchmarks with mimalloc because glibc malloc
//     serializes multi-threaded churn; a per-thread free-list pool reproduces
//     the same thread-local recycling behaviour without external
//     dependencies.
//
// Concurrency contract: shard `tid` is only ever touched by the thread that
// owns handle `tid`.  Cross-thread frees (Hyaline batches reclaimed by
// whichever thread drops the last reference) go to the *freeing* thread's
// shard — memory migrates between shards exactly like mimalloc pages do.
//
// The *depot* closes the recycling loop the background reclaimer would
// otherwise break: with a service thread doing all the freeing, every
// recycled node lands in the reclaimer's shard while the mutators carve
// fresh blocks forever.  The reclaimer donates its shard's whole free-list
// chains after each round (donate_free_lists), and a mutator whose local
// list runs dry takes one whole chain before falling back to carving — one
// mutex acquisition per ~scan_threshold allocations, never per node.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "common/align.hpp"
#include "common/chunked_list.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

class NodePool {
 public:
  static constexpr std::size_t kGranularity = 32;
  // Size classes cover every pooled node up to ~4KB cells so the kv layer's
  // inline value blobs (64B–4KB serving payloads) come from the same
  // per-thread shards as the small structure nodes.  Class 0 is still 32
  // bytes; the free-list array per shard grows to ~1KB, which is noise next
  // to the 256KB blocks.
  static constexpr std::size_t kNumClasses = 136;  // up to 4352-byte cells
  static constexpr std::size_t kBlockBytes = 256 * 1024;
  // Blocks start on a cache line and cells are multiples of 32 bytes, so
  // while a shard carves only 64-byte cells (a list node and its header)
  // none of them straddles a line.
  static constexpr std::align_val_t kBlockAlign{kCacheLine};

  // `shards` is only the initial population; ensure_shards() grows the
  // directory on demand when late threads join the domain's registry.
  explicit NodePool(unsigned shards) { ensure_shards(shards == 0 ? 1 : shards); }

  // Makes shard indices [0, n) usable.  Thread-safe and lock-free (chunk
  // install is a CAS race; the count is a monotonic CAS-max); existing
  // shards never move, so references held by running threads stay valid.
  void ensure_shards(unsigned n) {
    if (n == 0) return;
    shards_.ensure(n - 1);
    unsigned cur = shard_count_.load(std::memory_order_relaxed);
    while (cur < n && !shard_count_.compare_exchange_weak(
                          cur, n, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

  // High-water shard count (for statistics walks).
  unsigned shard_count() const noexcept {
    return shard_count_.load(std::memory_order_acquire);
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  // Returns a pointer to `size` usable bytes preceded by an AllocHeader.
  // The caller must store the birth era into the header before publishing
  // the node.  `size` must fit the largest size class.
  void* alloc(unsigned tid, std::size_t size) {
    Shard& s = shard(tid);
    const std::size_t cls = class_of(size);
    if (ReclaimNode* n = s.free_lists[cls]) {
      s.free_lists[cls] = n->smr_next;
      assert(header_of(n)->debug_state == kNodeFreed);
      ++s.reused;
      return n;
    }
    // Local list dry: adopt one whole donated chain before carving.  The
    // gauge check keeps the no-depot case (background reclaim off) free of
    // any lock traffic.
    if (depot_chains_.load(std::memory_order_relaxed) > 0) {
      if (ReclaimNode* n = depot_take(cls)) {
        s.free_lists[cls] = n->smr_next;
        assert(header_of(n)->debug_state == kNodeFreed);
        ++s.reused;
        return n;
      }
    }
    return carve(s, cls);
  }

  // Returns a node to the freeing thread's shard.  The allocation header is
  // deliberately left intact (type-stability contract).
  void free(unsigned tid, void* node, std::size_t size) {
    Shard& s = shard(tid);
    const std::size_t cls = class_of(size);
    auto* n = static_cast<ReclaimNode*>(node);
    header_of(n)->debug_state = kNodeFreed;
    n->smr_next = s.free_lists[cls];
    s.free_lists[cls] = n;
    ++s.freed;
  }

  // Moves every free-list chain of shard `tid` into the depot.  Must be
  // called by the shard's owner (the background reclaimer, on its own shard,
  // after a reclamation round) — the shard lists are single-owner, only the
  // depot itself is shared.  One lock covers all size classes.
  void donate_free_lists(unsigned tid) {
    Shard& s = shard(tid);
    ReclaimNode* chains[kNumClasses];
    unsigned n = 0;
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      if (s.free_lists[cls] != nullptr) ++n;
      chains[cls] = s.free_lists[cls];
      s.free_lists[cls] = nullptr;
    }
    if (n == 0) return;
    {
      std::lock_guard<std::mutex> lock(depot_mu_);
      for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
        if (chains[cls] != nullptr) depot_[cls].push_back(chains[cls]);
      }
    }
    depot_chains_.fetch_add(n, std::memory_order_relaxed);
  }

  // Depot gauge (tests / introspection).
  std::uint64_t depot_chain_count() const noexcept {
    return depot_chains_.load(std::memory_order_relaxed);
  }

  // --- statistics (tests / introspection; racy snapshots by design) -------
  std::uint64_t total_block_bytes() const {
    std::uint64_t sum = 0;
    for (unsigned i = 0, n = shard_count(); i < n; ++i)
      sum += shards_[i]->block_bytes;
    return sum;
  }
  std::uint64_t total_reused() const {
    std::uint64_t sum = 0;
    for (unsigned i = 0, n = shard_count(); i < n; ++i)
      sum += shards_[i]->reused;
    return sum;
  }
  std::uint64_t total_carved() const {
    std::uint64_t sum = 0;
    for (unsigned i = 0, n = shard_count(); i < n; ++i)
      sum += shards_[i]->carved;
    return sum;
  }

  static constexpr std::size_t max_node_bytes() {
    return kNumClasses * kGranularity - sizeof(AllocHeader);
  }

 private:
  struct BlockFree {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, kBlockAlign);
    }
  };

  struct Shard {
    ReclaimNode* free_lists[kNumClasses] = {};
    std::vector<std::unique_ptr<std::byte, BlockFree>> blocks;
    std::byte* bump = nullptr;
    std::size_t bump_left = 0;
    std::uint64_t block_bytes = 0;
    std::uint64_t carved = 0;
    std::uint64_t reused = 0;
    std::uint64_t freed = 0;
  };

  Shard& shard(unsigned tid) {
    assert(tid < shard_count());
    return *shards_[tid];
  }

  static constexpr std::size_t class_of(std::size_t size) {
    const std::size_t total = size + sizeof(AllocHeader);
    const std::size_t cls = (total + kGranularity - 1) / kGranularity - 1;
    assert(cls < kNumClasses);
    return cls;
  }

  void* carve(Shard& s, std::size_t cls) {
    const std::size_t cell = (cls + 1) * kGranularity;
    if (s.bump_left < cell) {
      // Not zero-filled: carve writes each cell's header, the node's
      // constructor the rest, so untouched pages are never faulted in early.
      std::unique_ptr<std::byte, BlockFree> block(
          static_cast<std::byte*>(::operator new(kBlockBytes, kBlockAlign)));
      s.bump = block.get();
      s.blocks.push_back(std::move(block));
      s.bump_left = kBlockBytes;
      s.block_bytes += kBlockBytes;
    }
    std::byte* cellp = s.bump;
    s.bump += cell;
    s.bump_left -= cell;
    ++s.carved;
    auto* hdr = new (cellp) AllocHeader{};
    hdr->birth_era.store(0, std::memory_order_relaxed);
    return cellp + sizeof(AllocHeader);
  }

  // Pops one chain of class `cls` from the depot (nullptr if none).  The
  // chains gauge is decremented inside the lock so it can transiently read
  // high, never low — alloc's lock-free pre-check stays conservative.
  ReclaimNode* depot_take(std::size_t cls) {
    std::lock_guard<std::mutex> lock(depot_mu_);
    auto& chains = depot_[cls];
    if (chains.empty()) return nullptr;
    ReclaimNode* head = chains.back();
    chains.pop_back();
    depot_chains_.fetch_sub(1, std::memory_order_relaxed);
    return head;
  }

  // Lazily materialized, lock-free shard directory: chunks are installed by
  // CAS and never freed while the pool lives, so Shard references obtained
  // by running threads stay valid across concurrent growth.
  AtomicChunkedArray<Padded<Shard>> shards_;
  std::atomic<unsigned> shard_count_{0};
  std::mutex depot_mu_;
  std::vector<ReclaimNode*> depot_[kNumClasses];
  std::atomic<std::uint64_t> depot_chains_{0};
};

}  // namespace scot
