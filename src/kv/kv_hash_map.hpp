// KvHashMap: a string-keyed, lock-free, growable hash map — the shard type
// behind scot::KvStore (DESIGN.md §10).
//
// Split-ordered buckets (Shalev & Shavit, JACM 2006).  Every pair lives
// once, in one SCOT Harris list sorted by split-order key: the bit-reversed
// hash, made odd for pairs, with ties broken by key bytes.  Every operation
// walks it with scot_find (core/scot_find.hpp, paper Figure 5), the same
// walk as the Harris list's, §3.2.1 recovery included, from its bucket
// sentinel's link and ordered by KvOrder; the list ends at null.  Bucket b
// is an immortal sentinel whose key is reverse(b) (even), so it sorts just
// in front of every pair whose low hash bits are b, at every bucket count.
// Growing the table is one CAS on the bucket count; no node ever moves.
//
// Sentinels live inside the bucket directory (AtomicChunkedArray of
// BucketSlot, chunks CAS-installed and never freed), each behind a zeroed
// AllocHeader so Hyaline's birth-era check reads era 0.  A bucket is linked
// lazily on first use: the thread that claims it inserts its sentinel from
// the parent bucket (b with its top bit cleared); a thread that finds the
// bucket claimed by someone else starts at the parent instead — an earlier
// list position, so it is still correct, and it never waits.
//
// The value lives in a separate KvBlob cell reached through the node's
// `val` link, so upsert is a CAS of that link (the replaced blob retires
// through SMR) and erase linearizes by a CAS of `val` to null, which takes
// custody of the blob, before the node is marked and unlinked.  Both cells
// come from the domain's NodePool via alloc_extra(), so values up to ~4KB
// recycle through the same per-thread shards as list nodes.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/align.hpp"
#include "common/chunked_list.hpp"
#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "core/scot_find.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

// Word-at-a-time over the key: the length seeds the state (so a zero-padded
// tail cannot alias a shorter key), each 8-byte word is folded in with a
// multiply and an xor-shift, and a SplitMix64 finalizer avalanches the
// result.  The low bits pick the bucket and the high bits pick the KvStore
// shard, so both need full avalanche.
inline std::uint64_t kv_hash(std::string_view key) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = key.data();
  std::size_t n = key.size();
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ (n * kMul);
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

inline constexpr std::uint64_t kv_reverse_bits(std::uint64_t x) noexcept {
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
  x = ((x >> 8) & 0x00ff00ff00ff00ffULL) | ((x & 0x00ff00ff00ff00ffULL) << 8);
  x = ((x >> 16) & 0x0000ffff0000ffffULL) | ((x & 0x0000ffff0000ffffULL) << 16);
  return (x >> 32) | (x << 32);
}

// Split-order keys.  Pairs are odd and sentinels even, so a pair never
// compares equal to a sentinel.
inline constexpr std::uint64_t kv_pair_key(std::uint64_t hash) noexcept {
  return kv_reverse_bits(hash) | 1;
}
inline constexpr std::uint64_t kv_sentinel_key(std::uint64_t bucket) noexcept {
  return kv_reverse_bits(bucket);
}

// Value cell: length + inline bytes.  Immutable after publication (updates
// swap the whole blob), so readers need no per-byte synchronisation beyond
// the publishing CAS.
struct KvBlob : ReclaimNode {
  std::uint32_t vlen;

  explicit KvBlob(std::uint32_t n) noexcept : vlen(n) {}

  char* bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view view() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), vlen};
  }
};

// List node: split-order key + inline key bytes, and two mutable links.
// `next` carries kMarkBit for Harris' logical deletion; `val` is null once
// the pair has been erased (and always, for a bucket sentinel).
struct KvNode : ReclaimNode {
  using BlobMP = marked_ptr<KvBlob>;

  std::uint64_t so_key;
  std::uint32_t klen;
  StableAtomic<marked_ptr<KvNode>> next;
  StableAtomic<BlobMP> val;

  KvNode(std::uint64_t so, std::uint32_t kl, KvBlob* blob) noexcept
      : so_key(so), klen(kl) {
    next.store(marked_ptr<KvNode>{}, std::memory_order_relaxed);
    val.store(BlobMP(blob), std::memory_order_relaxed);
  }

  char* key_bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view key() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), klen};
  }
};

// scot_find's ordering predicate: list positions are ordered by
// split-order key, then key bytes.  Positive while n sorts before
// (so_key, key), zero on its node, negative past it and at the end of the
// list (null).
struct KvOrder {
  std::uint64_t so_key;
  std::string_view key;

  int operator()(const KvNode* n) const noexcept {
    if (n == nullptr) return -1;
    if (so_key != n->so_key) return so_key < n->so_key ? -1 : 1;
    const int c = key.compare(n->key());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
};

enum class KvPut {
  kInserted,   // key was absent; a fresh node was linked
  kUpdated,    // key was present; the value blob was swapped
  kRejected,   // key or value exceeds the pooled-cell ceiling
};

template <SmrDomain Smr>
class KvHashMap {
 public:
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using MP = marked_ptr<KvNode>;
  using BlobMP = marked_ptr<KvBlob>;
  using BlobSlot = ProtectionSlot<Handle, KvBlob>;

  // The SCOT walk's next/curr/prev/first-unsafe roles, plus the value blob.
  static constexpr unsigned kSlotsRequired = 5;

  struct Options {
    std::size_t initial_buckets = 16;            // rounded up to a power of 2
    std::size_t max_buckets = std::size_t{1} << 20;
    unsigned max_load_factor = 4;  // double when size > factor * buckets
  };

  static constexpr std::size_t max_key_bytes() {
    return NodePool::max_node_bytes() - sizeof(KvNode);
  }
  static constexpr std::size_t max_value_bytes() {
    return NodePool::max_node_bytes() - sizeof(KvBlob);
  }

  explicit KvHashMap(Smr& smr, Options opt = {}) : smr_(smr) {
    require_slots(smr_, kSlotsRequired);
    initial_ = std::bit_ceil(std::max<std::size_t>(opt.initial_buckets, 1));
    max_buckets_ = std::max(std::bit_ceil(
                                std::max<std::size_t>(opt.max_buckets, 1)),
                            initial_);
    max_load_factor_ = std::max(1u, opt.max_load_factor);
    count_.store(initial_, std::memory_order_relaxed);
    buckets_.ensure(initial_ - 1);
    BucketSlot& head = buckets_[0];
    assert(header_of(&head.sentinel) == &head.hdr);
    head.state.store(kLinked, std::memory_order_release);
  }

  ~KvHashMap() {
    // Single-threaded teardown: every pair still in the list (marked or
    // not) is owned by it, and so is any blob still attached; sentinels
    // belong to the directory.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    KvNode* n = buckets_[0].sentinel.next.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      KvNode* next = n->next.load(std::memory_order_relaxed).ptr();
      if ((n->so_key & 1) != 0) {
        KvBlob* blob = n->val.load(std::memory_order_relaxed).ptr();
        if (blob != nullptr) h.dealloc_unpublished(blob);
        h.dealloc_unpublished(n);
      }
      n = next;
    }
  }

  KvHashMap(const KvHashMap&) = delete;
  KvHashMap& operator=(const KvHashMap&) = delete;

  // Every op takes the key's kv_hash(), which the caller has already
  // computed to route the key to this shard.
  KvPut put(Handle& h, std::uint64_t hash, std::string_view key,
            std::string_view value) {
    if (key.size() > max_key_bytes() || value.size() > max_value_bytes())
      return KvPut::kRejected;
    const std::uint64_t so = kv_pair_key(hash);
    Guard g(h);
    Hp hp(g);
    KvNode* const start = bucket(g, hp, hash);
    KvBlob* const nb = make_blob(h, value);
    KvNode* n = nullptr;
    for (;;) {
      const Position pos = walk(g, hp, start, {so, key}, /*unlink=*/true);
      if (!pos.found) {
        if (n == nullptr) n = make_node(h, so, key, nb);
        if (link(pos, n)) break;
        continue;
      }
      BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
      if (bv.ptr() == nullptr) {
        // An erase has taken the blob: help it mark the node so the next
        // walk unlinks it, then race to reinsert.
        mark(pos.curr);
        continue;
      }
      if (pos.curr->val.compare_exchange_strong(bv, BlobMP(nb),
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
        h.retire(bv.ptr());  // the replaced blob is ours to retire
        if (n != nullptr) h.dealloc_unpublished(n);
        return KvPut::kUpdated;
      }
    }
    const std::int64_t size = size_.fetch_add(1, std::memory_order_relaxed) + 1;
    maybe_grow(size);
    return KvPut::kInserted;
  }

  bool erase(Handle& h, std::uint64_t hash, std::string_view key) {
    const std::uint64_t so = kv_pair_key(hash);
    Guard g(h);
    Hp hp(g);
    KvNode* const start = bucket(g, hp, hash);
    for (;;) {
      const Position pos = walk(g, hp, start, {so, key}, /*unlink=*/true);
      if (!pos.found) return false;
      BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
      if (bv.ptr() == nullptr) return false;  // lost to a concurrent erase
      // The CAS to null is the linearization point of the delete and takes
      // custody of the blob for this eraser.
      if (!pos.curr->val.compare_exchange_strong(bv, BlobMP{},
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        continue;  // updated under us; re-walk
      }
      // One unlink attempt; on failure a later writer's walk removes the
      // marked node with its chain, and that writer retires it.
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, mark(pos.curr),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        h.retire(pos.curr);
      }
      h.retire(bv.ptr());
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }

  bool get(Handle& h, std::uint64_t hash, std::string_view key,
           std::string* out) {
    const std::uint64_t so = kv_pair_key(hash);
    Guard g(h);
    Hp hp(g);
    KvNode* const start = bucket(g, hp, hash);
    for (;;) {
      const Position pos = walk(g, hp, start, {so, key}, /*unlink=*/false);
      if (!pos.found) return false;
      // protect() republishes until the val word is stable, and every blob
      // retirement is preceded by the CAS that moves val off the blob.
      const Protected<KvBlob> pb = hp.blob.protect(pos.curr->val);
      if (!g.valid()) {
        g.restart();
        continue;
      }
      if (pb.get() == nullptr) return false;  // erased
      if (out != nullptr) out->assign(pb->view());
      return true;
    }
  }

  bool contains(Handle& h, std::uint64_t hash, std::string_view key) {
    const std::uint64_t so = kv_pair_key(hash);
    Guard g(h);
    Hp hp(g);
    const Position pos =
        walk(g, hp, bucket(g, hp, hash), {so, key}, /*unlink=*/false);
    return pos.found &&
           pos.curr->val.load(std::memory_order_seq_cst).ptr() != nullptr;
  }

  // Quiescent observers (tests / teardown / reporting).
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const KvNode* c =
        buckets_[0].sentinel.next.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->val.load(std::memory_order_acquire).ptr() != nullptr) ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

  std::size_t bucket_count() const {
    return count_.load(std::memory_order_acquire);
  }
  // Sentinels linked at an index >= the initial bucket count: the buckets
  // growth has brought into use.
  std::uint64_t migrated_buckets() const {
    return linked_.load(std::memory_order_relaxed);
  }

 private:
  enum : std::uint32_t { kUnlinked = 0, kClaimed = 1, kLinked = 2 };

  // One directory entry: bucket b's sentinel, behind a zeroed allocation
  // header (Hyaline's protect() reads the birth era 16 bytes in front of
  // every node it protects), and the bucket's link state.  Explicit
  // initializers, because the chunk install value-initialises slots.  A
  // slot is 96 bytes with `sentinel.next` at offset 48 and `state` at 64,
  // so the two share a cache line only in slots that start 32 bytes past
  // one; the alignment just puts the header on a 32-byte boundary, as in
  // a pooled cell.
  struct alignas(32) BucketSlot {
    AllocHeader hdr{};
    KvNode sentinel{0, 0, nullptr};
    std::atomic<std::uint32_t> state{kUnlinked};
  };

  using Position = ScotPosition<KvNode>;

  // The walk's four list roles, which it renames in a local copy, then
  // blob in its own slot above them, so get() can protect the value last.
  struct Hp : ScotRoles<Handle, KvNode> {
    BlobSlot blob;
    explicit Hp(Guard& g)
        : ScotRoles<Handle, KvNode>(g), blob(g.template slot<KvBlob>()) {}
  };

  // --- allocation helpers -------------------------------------------------
  KvBlob* make_blob(Handle& h, std::string_view value) {
    KvBlob* b = h.template alloc_extra<KvBlob>(
        value.size(), static_cast<std::uint32_t>(value.size()));
    if (!value.empty()) std::memcpy(b->bytes(), value.data(), value.size());
    return b;
  }
  KvNode* make_node(Handle& h, std::uint64_t so, std::string_view key,
                    KvBlob* blob) {
    KvNode* n = h.template alloc_extra<KvNode>(
        key.size(), so, static_cast<std::uint32_t>(key.size()), blob);
    if (!key.empty()) std::memcpy(n->key_bytes(), key.data(), key.size());
    return n;
  }

  // --- buckets ------------------------------------------------------------
  KvNode* bucket(Guard& g, Hp& hp, std::uint64_t hash) {
    const std::size_t n = count_.load(std::memory_order_acquire);
    return start_at(g, hp, static_cast<std::size_t>(hash) & (n - 1));
  }

  // The sentinel an operation on bucket b starts from: b's own once it is
  // linked (linking it first if this thread wins the claim), the parent's
  // while another thread holds the claim.
  KvNode* start_at(Guard& g, Hp& hp, std::size_t b) {
    BucketSlot& s = buckets_[b];
    std::uint32_t st = s.state.load(std::memory_order_acquire);
    if (st == kLinked) return &s.sentinel;
    KvNode* const parent = start_at(g, hp, b ^ std::bit_floor(b));
    if (st != kUnlinked ||
        !s.state.compare_exchange_strong(st, kClaimed,
                                         std::memory_order_acquire,
                                         std::memory_order_acquire)) {
      return parent;
    }
    // Only the claimer links, so a bucket never gets two sentinels.
    s.sentinel.so_key = kv_sentinel_key(b);
    while (!link(walk(g, hp, parent, {s.sentinel.so_key, {}}, /*unlink=*/true),
                 &s.sentinel)) {
    }
    if (b >= initial_) linked_.fetch_add(1, std::memory_order_relaxed);
    s.state.store(kLinked, std::memory_order_release);
    return &s.sentinel;
  }

  void maybe_grow(std::int64_t size) {
    std::size_t n = count_.load(std::memory_order_acquire);
    if (n >= max_buckets_ ||
        size <= static_cast<std::int64_t>(max_load_factor_ * n))
      return;
    buckets_.ensure(2 * n - 1);  // addressable before anyone can route there
    count_.compare_exchange_strong(n, 2 * n, std::memory_order_acq_rel,
                                   std::memory_order_relaxed);
  }

  // --- the list -----------------------------------------------------------
  // The SCOT walk from an immortal sentinel; a failure re-walks from it.
  Position walk(Guard& g, const Hp& hp, KvNode* start, KvOrder order,
                bool unlink) {
    return scot_find<HarrisListTraits>(g, hp, start->next, order, unlink);
  }

  // Links n in front of pos.curr; false when *pos.prev moved (re-walk).
  static bool link(const Position& pos, KvNode* n) {
    n->next.store(MP(pos.curr), std::memory_order_relaxed);
    MP expected(pos.curr);
    return pos.prev->compare_exchange_strong(expected, MP(n),
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed);
  }

  // Marks n (its val is already null) and returns its successor.
  static MP mark(KvNode* n) {
    MP next = n->next.load(std::memory_order_seq_cst);
    while (!next.marked() &&
           !n->next.compare_exchange_weak(next, next.with_mark(),
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
    }
    return next.clean();
  }

  AtomicChunkedArray<BucketSlot> buckets_;
  std::size_t initial_ = 16;
  std::size_t max_buckets_ = std::size_t{1} << 20;
  unsigned max_load_factor_ = 4;
  std::atomic<std::size_t> count_{0};
  alignas(kCacheLine) std::atomic<std::int64_t> size_{0};
  std::atomic<std::uint64_t> linked_{0};
  Smr& smr_;
};

}  // namespace scot
