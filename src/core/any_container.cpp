// The one translation unit that instantiates the scheme × container cross
// product (7 schemes × {MSQueue, TreiberStack, Deque}) behind
// AnyContainer::make().  Mirror of src/core/any_map.cpp for the
// queue/stack/deque concept — adding a container structure is one
// kStructureInfos row in core/registry.hpp plus one case here (DESIGN.md
// §11 has the multi-concept recipe).
#include "core/any_container.hpp"

#include "core/deque.hpp"
#include "core/ms_queue.hpp"
#include "core/treiber_stack.hpp"
#include "smr/smr.hpp"

namespace scot {
namespace {

using V = AnyContainer::Value;

// TypedAnyContainer maps the erased union surface (push/pop, either end)
// onto whichever ops the concrete structure exposes, detected structurally:
// queue = push_back/pop_front via enqueue/dequeue, stack = push_front/
// pop_front via push/pop, deque = all four.  Unsupported ends report
// false / nullopt instead of asserting so the facade stays total — the
// per-concept wrappers (AnyQueue/AnyStack/AnyDeque) keep callers off them.
template <class Smr, class DS>
class TypedAnyContainer final
    : public detail::DomainImpl<Smr, detail::AnyContainerImpl> {
  using Base = detail::DomainImpl<Smr, detail::AnyContainerImpl>;
  using Base::handle;
  using Handle = typename Base::Handle;

 public:
  explicit TypedAnyContainer(const AnyContainerOptions& options)
      : Base(options.smr), ds_(std::make_unique<DS>(this->smr_)) {}

  bool push_front_with(void* h, V value) override {
    return do_push_front(handle(h), value);
  }
  bool push_back_with(void* h, V value) override {
    return do_push_back(handle(h), value);
  }
  std::optional<V> pop_front_with(void* h) override {
    return do_pop_front(handle(h));
  }
  std::optional<V> pop_back_with(void* h) override {
    return do_pop_back(handle(h));
  }
  std::size_t size_unsafe() const override { return ds_->size_unsafe(); }

 private:
  // front = the stack top / queue head / deque left end.
  bool do_push_front(Handle& h, V value) {
    if constexpr (requires(DS& d) { d.push_left(h, value); }) {
      ds_->push_left(h, value);
      return true;
    } else if constexpr (requires(DS& d) { d.push(h, value); }) {
      ds_->push(h, value);
      return true;
    } else {
      (void)h;
      (void)value;
      return false;  // queues only grow at the back
    }
  }
  bool do_push_back(Handle& h, V value) {
    if constexpr (requires(DS& d) { d.push_right(h, value); }) {
      ds_->push_right(h, value);
      return true;
    } else if constexpr (requires(DS& d) { d.enqueue(h, value); }) {
      ds_->enqueue(h, value);
      return true;
    } else {
      (void)h;
      (void)value;
      return false;  // stacks only grow at the top
    }
  }
  std::optional<V> do_pop_front(Handle& h) {
    if constexpr (requires(DS& d) { d.pop_left(h); }) {
      return ds_->pop_left(h);
    } else if constexpr (requires(DS& d) { d.pop(h); }) {
      return ds_->pop(h);
    } else if constexpr (requires(DS& d) { d.dequeue(h); }) {
      return ds_->dequeue(h);
    } else {
      (void)h;
      return std::nullopt;
    }
  }
  std::optional<V> do_pop_back(Handle& h) {
    if constexpr (requires(DS& d) { d.pop_right(h); }) {
      return ds_->pop_right(h);
    } else {
      (void)h;
      return std::nullopt;  // queues and stacks only shrink at the front
    }
  }

  std::unique_ptr<DS> ds_;
};

template <class Smr, class DS>
std::unique_ptr<detail::AnyContainerImpl> cell(
    const AnyContainerOptions& options) {
  return std::make_unique<TypedAnyContainer<Smr, DS>>(options);
}

}  // namespace

std::optional<AnyContainer> AnyContainer::make(
    SchemeId scheme, StructureId structure,
    const AnyContainerOptions& options) {
  auto impl = with_scheme(
      scheme, [&]<class Smr>() -> std::unique_ptr<detail::AnyContainerImpl> {
        switch (structure) {
          case StructureId::kMSQueue:
            return cell<Smr, MSQueue<V, Smr>>(options);
          case StructureId::kTreiberStack:
            return cell<Smr, TreiberStack<V, Smr>>(options);
          case StructureId::kDeque:
            return cell<Smr, Deque<V, Smr>>(options);
          default:
            return nullptr;  // not a queue/stack/deque structure
        }
      });
  if (impl == nullptr) return std::nullopt;
  return AnyContainer(scheme, structure, std::move(impl));
}

}  // namespace scot
