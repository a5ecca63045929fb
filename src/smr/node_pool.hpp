// Type-stable node pool backing every reclamation domain.
//
// Purpose (see DESIGN.md §4):
//  1. *Type stability.*  Memory handed out for nodes is never returned to the
//     operating system while the domain lives, and the 16-byte allocation
//     header (birth era, size, breadcrumb) survives free/reuse.  Hyaline-1S
//     relies on this to read the birth era of a node that may have been
//     concurrently reclaimed.  Free writes two words of a cell: the node's
//     smr_next (the free-list link, at +8) and the header's debug_state.
//     The memory outlives the domain too: a destroyed pool hands its 2 MiB
//     blocks to a process-wide block cache, and the next pool carves them
//     again, already faulted in, instead of mapping fresh ones.
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

#if defined(__linux__)
#include <sys/mman.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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
  // A shard's first block is small, so a shard that stays small keeps a
  // small footprint; every later block is one 2 MiB huge page.
  static constexpr std::size_t kBlockBytes = 256 * 1024;
  static constexpr std::size_t kHugeBlockBytes = 2 * 1024 * 1024;
  // Destroyed pools park at most this many 2 MiB blocks (128 MiB) in the
  // process-wide block cache; past it they are unmapped.
  static constexpr std::size_t kBlockCacheCap = 64;
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

  // Blocks parked in the process-wide block cache.
  static std::size_t cached_blocks() {
    BlockCache& c = block_cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.count;
  }

 private:
  // A mapped block is a 2 MiB huge-page mapping that goes back to the block
  // cache; any other block came from aligned operator new.
  struct BlockRelease {
    bool mapped = false;
    void operator()(std::byte* p) const noexcept {
      if (mapped) {
        release_mapped(p);
      } else {
        ::operator delete(p, kBlockAlign);
      }
    }
  };
  using Block = std::unique_ptr<std::byte, BlockRelease>;

  // The 2 MiB blocks of destroyed pools, most recently released on top.
  // Leaked on purpose (block_cache()), so a domain destroyed during static
  // destruction can still return its blocks.
  struct BlockCache {
    std::mutex mu;
    std::size_t count = 0;
    std::byte* blocks[kBlockCacheCap] = {};
  };

  static BlockCache& block_cache() {
    static BlockCache* const cache = new BlockCache;
    return *cache;
  }

  struct Shard {
    ReclaimNode* free_lists[kNumClasses] = {};
    std::vector<Block> blocks;
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
    if (s.bump_left < cell) add_block(s);
    std::byte* cellp = s.bump;
    s.bump += cell;
    s.bump_left -= cell;
    ++s.carved;
    auto* hdr = new (cellp) AllocHeader{};
    hdr->birth_era.store(0, std::memory_order_relaxed);
    return cellp + sizeof(AllocHeader);
  }

  // Gives the shard a fresh block to carve.  Not zero-filled: carve writes
  // each cell's header, the node's constructor the rest, so untouched pages
  // are never faulted in early.  A recycled block holds a dead domain's
  // cells; the header carve writes is all a reader of the new domain can
  // see of them.  Out of line, so alloc's fast path (carve inlines into
  // it) stays as small as it was with operator new: inlined, the block
  // code cost perfbench list-read mops.HLN ~5%.
  [[gnu::noinline]] static void add_block(Shard& s) {
    const std::size_t bytes = s.blocks.empty() ? kBlockBytes : kHugeBlockBytes;
    s.blocks.push_back(take_block(bytes));
    s.bump = s.blocks.back().get();
    s.bump_left = bytes;
    s.block_bytes += bytes;
  }

  // The one block function.  A 2 MiB block comes from the block cache, else
  // from a fresh huge-page mapping; a small block, or a huge one where
  // mmap/madvise is missing or fails, comes from aligned operator new.
  static Block take_block(std::size_t bytes) {
    if (bytes == kHugeBlockBytes) {
      if (std::byte* p = take_mapped()) return Block(p, BlockRelease{true});
    }
    return Block(static_cast<std::byte*>(::operator new(bytes, kBlockAlign)),
                 BlockRelease{false});
  }

  static std::byte* take_mapped() noexcept {
#if defined(MADV_HUGEPAGE)
    BlockCache& c = block_cache();
    {
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.count > 0) {
        std::byte* p = c.blocks[--c.count];
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(p, kHugeBlockBytes);
#endif
        return p;
      }
    }
    // Over-map by one block, then trim to one 2 MiB-aligned block, so the
    // kernel can back it with a single huge page.
    void* raw = ::mmap(nullptr, 2 * kHugeBlockBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) return nullptr;
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned =
        (base + kHugeBlockBytes - 1) & ~std::uintptr_t{kHugeBlockBytes - 1};
    const std::size_t head = aligned - base;
    if (head != 0) ::munmap(raw, head);
    ::munmap(reinterpret_cast<void*>(aligned + kHugeBlockBytes),
             kHugeBlockBytes - head);
    auto* p = reinterpret_cast<std::byte*>(aligned);
    if (::madvise(p, kHugeBlockBytes, MADV_HUGEPAGE) != 0) {
      ::munmap(p, kHugeBlockBytes);
      return nullptr;
    }
    return p;
#else
    return nullptr;
#endif
  }

  // Parks a mapped block in the block cache, or unmaps it past the cap.
  // Under ASan a parked block is poisoned, so a touch of a dead domain's
  // node is still reported.
  static void release_mapped(std::byte* p) noexcept {
#if defined(MADV_HUGEPAGE)
    BlockCache& c = block_cache();
    {
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.count < kBlockCacheCap) {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(p, kHugeBlockBytes);
#endif
        c.blocks[c.count++] = p;
        return;
      }
    }
    ::munmap(p, kHugeBlockBytes);
#else
    (void)p;
#endif
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
