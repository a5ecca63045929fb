// Tagged pointer for logical deletion.
//
// The non-blocking structures in this library steal the two low-order bits
// of their link words (pool cells are 16-byte aligned):
//  * Harris' list (and KvHashMap's split-ordered list) uses bit 0 as the
//    *mark* ("the node owning this link is logically deleted").
//  * The Natarajan-Mittal tree uses bit 0 as the *flag* ("the leaf this edge
//    points to is being deleted") and bit 1 as the *tag* ("this edge is
//    frozen as part of a pending chain removal").
#pragma once

#include <atomic>
#include <cstdint>

#include "smr/reclaim_node.hpp"

namespace scot {

inline constexpr std::uintptr_t kMarkBit = 1;  // list mark / tree flag
inline constexpr std::uintptr_t kTagBit = 2;   // tree tag
inline constexpr std::uintptr_t kBitsMask = kMarkBit | kTagBit;

template <class T>
class marked_ptr {
 public:
  constexpr marked_ptr() noexcept = default;
  constexpr explicit marked_ptr(T* p, std::uintptr_t bits = 0) noexcept
      : raw_(reinterpret_cast<std::uintptr_t>(p) | bits) {}

  static constexpr marked_ptr from_raw(std::uintptr_t raw) noexcept {
    marked_ptr m;
    m.raw_ = raw;
    return m;
  }

  T* ptr() const noexcept { return reinterpret_cast<T*>(raw_ & ~kBitsMask); }
  constexpr std::uintptr_t raw() const noexcept { return raw_; }
  constexpr std::uintptr_t bits() const noexcept { return raw_ & kBitsMask; }

  constexpr bool marked() const noexcept { return (raw_ & kMarkBit) != 0; }
  constexpr bool flagged() const noexcept { return marked(); }
  constexpr bool tagged() const noexcept { return (raw_ & kTagBit) != 0; }

  constexpr marked_ptr clean() const noexcept {
    return from_raw(raw_ & ~kBitsMask);
  }
  constexpr marked_ptr with_mark() const noexcept {
    return from_raw(raw_ | kMarkBit);
  }
  constexpr marked_ptr with_flag() const noexcept { return with_mark(); }
  constexpr marked_ptr with_tag() const noexcept {
    return from_raw(raw_ | kTagBit);
  }
  constexpr marked_ptr with_bits(std::uintptr_t bits) const noexcept {
    return from_raw((raw_ & ~kBitsMask) | bits);
  }

  constexpr explicit operator bool() const noexcept {
    return (raw_ & ~kBitsMask) != 0;
  }

  friend constexpr bool operator==(marked_ptr a, marked_ptr b) noexcept {
    return a.raw_ == b.raw_;
  }
  friend constexpr bool operator!=(marked_ptr a, marked_ptr b) noexcept {
    return a.raw_ != b.raw_;
  }

 private:
  std::uintptr_t raw_ = 0;
};

// Customization point used by the SMR schemes (hazard slots publish the
// address with the deletion bits cleared, per Figure 1 of the paper).
template <class T>
inline ReclaimNode* smr_raw(marked_ptr<T> p) noexcept {
  T* n = p.ptr();
  return n ? static_cast<ReclaimNode*>(n) : nullptr;
}

}  // namespace scot
