// scot::AnyContainer — the type-erased facade over the scheme × container
// cross product (queues, stacks, deques), plus the per-concept wrappers
// scot::AnyQueue / scot::AnyStack / scot::AnyDeque.
//
// Mirror of scot::AnyMap (core/any_map.hpp) for the queue/stack/deque
// concept, on the same facade skeleton (core/any_facade.hpp): the scheme
// and the structure are runtime values, virtual dispatch sits at operation
// granularity, and the fully typed operation — protect() fast path
// included — runs inside.
//
// The erased op surface is the *union* of the three shapes: push/pop at
// either end of a uint64 payload.  Each structure maps its own ops onto the
// ends it supports and reports `false` / nullopt for the ends it does not
// (MSQueue: push_back + pop_front; TreiberStack: push_front + pop_front;
// Deque: all four).  The per-concept wrappers then narrow the surface back
// to the familiar names (enqueue/dequeue, push/pop, push_left/...), with
// make() checking the requested StructureId against its ContainerKind so a
// stack cannot be opened as a queue.
//
// Threading contract: identical to AnyMap — one `Session` per worker thread
// (dynamic join/leave, no thread cap).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/any_facade.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct AnyContainerOptions {
  SmrConfig smr;  // domain configuration (max_threads, ...)
};

namespace detail {

// The container concept's erased op surface: the union of the three
// shapes; unsupported ends return false / nullopt.  One concrete
// TypedAnyContainer<Smr, DS> per cell lives in src/core/any_container.cpp.
class AnyContainerImpl : public FacadeImpl {
 public:
  virtual bool push_front_with(void* h, std::uint64_t value) = 0;
  virtual bool push_back_with(void* h, std::uint64_t value) = 0;
  virtual std::optional<std::uint64_t> pop_front_with(void* h) = 0;
  virtual std::optional<std::uint64_t> pop_back_with(void* h) = 0;
  virtual std::size_t size_unsafe() const = 0;
};

}  // namespace detail

class AnyContainer : public detail::Facade<detail::AnyContainerImpl> {
 public:
  using Value = std::uint64_t;

  // Builds the (scheme, structure) cell.  Returns nullopt for anything whose
  // ContainerKind is not kQueue/kStack/kDeque.  Defined in
  // src/core/any_container.cpp, the only TU that pays for the cross
  // product's template instantiations.
  static std::optional<AnyContainer> make(
      SchemeId scheme, StructureId structure,
      const AnyContainerOptions& options = {});

  // One thread's membership in the container's reclamation domain; see
  // detail::ErasedSession for the contract (move-only, one per thread).
  class Session : public detail::ErasedSession<detail::AnyContainerImpl> {
   public:
    Session() = default;

    bool push_front(Value value) { return impl_->push_front_with(h_, value); }
    bool push_back(Value value) { return impl_->push_back_with(h_, value); }
    std::optional<Value> pop_front() { return impl_->pop_front_with(h_); }
    std::optional<Value> pop_back() { return impl_->pop_back_with(h_); }

   private:
    friend class AnyContainer;
    explicit Session(detail::AnyContainerImpl* impl) : ErasedSession(impl) {}
  };

  // Opens a session for the calling thread.  The container must outlive it.
  Session session() { return Session(impl_.get()); }

  std::size_t size_unsafe() const { return impl_->size_unsafe(); }
  ContainerKind kind() const { return container_kind(structure_); }

 private:
  AnyContainer(SchemeId scheme, StructureId structure,
               std::unique_ptr<detail::AnyContainerImpl> impl)
      : Facade(scheme, structure, std::move(impl)) {}
};

// --- per-concept wrappers ---------------------------------------------------
// Thin views that narrow AnyContainer's union surface back to each concept's
// vocabulary.  make() validates the StructureId's ContainerKind against the
// concept's default structure, so the type of the facade in hand always
// tells you the ordering discipline you got.

namespace detail {

// The shared make/observer shell of AnyQueue, AnyStack and AnyDeque; each
// supplies only its Session's op names.
template <class Self, StructureId kDefault>
class ContainerView {
 public:
  using Value = AnyContainer::Value;

  static std::optional<Self> make(SchemeId scheme,
                                  StructureId structure = kDefault,
                                  const AnyContainerOptions& options = {}) {
    if (container_kind(structure) != container_kind(kDefault))
      return std::nullopt;
    auto c = AnyContainer::make(scheme, structure, options);
    if (!c) return std::nullopt;
    return Self(std::move(*c));
  }

  class SessionBase {
   public:
    SessionBase() = default;
    explicit operator bool() const noexcept { return bool(s_); }
    void reset() noexcept { s_.reset(); }

   protected:
    friend ContainerView;
    explicit SessionBase(AnyContainer::Session s) : s_(std::move(s)) {}
    AnyContainer::Session s_;
  };

  auto session() { return typename Self::Session(c_.session()); }

  AnyContainer& container() { return c_; }
  const AnyContainer& container() const { return c_; }
  std::size_t size_unsafe() const { return c_.size_unsafe(); }
  std::uint64_t restarts() const { return c_.restarts(); }
  std::uint64_t recoveries() const { return c_.recoveries(); }

 protected:
  explicit ContainerView(AnyContainer c) : c_(std::move(c)) {}
  AnyContainer c_;
};

}  // namespace detail

class AnyQueue
    : public detail::ContainerView<AnyQueue, StructureId::kMSQueue> {
 public:
  class Session : public SessionBase {
   public:
    using SessionBase::SessionBase;
    bool enqueue(Value v) { return s_.push_back(v); }
    std::optional<Value> dequeue() { return s_.pop_front(); }
  };

 private:
  using ContainerView::ContainerView;
};

class AnyStack
    : public detail::ContainerView<AnyStack, StructureId::kTreiberStack> {
 public:
  class Session : public SessionBase {
   public:
    using SessionBase::SessionBase;
    bool push(Value v) { return s_.push_front(v); }
    std::optional<Value> pop() { return s_.pop_front(); }
  };

 private:
  using ContainerView::ContainerView;
};

class AnyDeque : public detail::ContainerView<AnyDeque, StructureId::kDeque> {
 public:
  class Session : public SessionBase {
   public:
    using SessionBase::SessionBase;
    bool push_left(Value v) { return s_.push_front(v); }
    bool push_right(Value v) { return s_.push_back(v); }
    std::optional<Value> pop_left() { return s_.pop_front(); }
    std::optional<Value> pop_right() { return s_.pop_back(); }
  };

 private:
  using ContainerView::ContainerView;
};

}  // namespace scot
