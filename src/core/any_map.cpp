// The one translation unit that instantiates the full scheme × structure
// cross product behind AnyMap::make().  The scheme resolves through
// with_scheme() (smr/smr.hpp) and the structure through the switch below —
// adding a map structure is one kStructureInfos row in core/registry.hpp
// plus one case here (DESIGN.md §6).
#include "core/any_map.hpp"

#include "core/core.hpp"

namespace scot {
namespace {

using K = AnyMap::Key;
using V = AnyMap::Value;

template <class Smr, class DS>
class TypedAnyMap final : public detail::DomainImpl<Smr, detail::AnyMapImpl> {
  using Base = detail::DomainImpl<Smr, detail::AnyMapImpl>;
  using Base::handle;

 public:
  explicit TypedAnyMap(const AnyMapOptions& options)
      : Base(options.smr), ds_(make_ds(this->smr_, options)) {}

  bool insert_with(void* h, K key, V value) override {
    return ds_->insert(handle(h), key, value);
  }
  bool erase_with(void* h, K key) override {
    return ds_->erase(handle(h), key);
  }
  bool contains_with(void* h, K key) override {
    return ds_->contains(handle(h), key);
  }
  std::optional<V> get_with(void* h, K key) override {
    return ds_->get(handle(h), key);
  }
  std::size_t size_unsafe() const override { return ds_->size_unsafe(); }

 private:
  static std::unique_ptr<DS> make_ds(Smr& smr, const AnyMapOptions& options) {
    if constexpr (requires { DS(smr, std::size_t{1}); }) {
      return std::make_unique<DS>(
          smr, options.hash_buckets != 0 ? options.hash_buckets : 64);
    } else {
      return std::make_unique<DS>(smr);
    }
  }

  std::unique_ptr<DS> ds_;
};

template <class Smr, class DS>
std::unique_ptr<detail::AnyMapImpl> cell(const AnyMapOptions& options) {
  return std::make_unique<TypedAnyMap<Smr, DS>>(options);
}

}  // namespace

std::optional<AnyMap> AnyMap::make(SchemeId scheme, StructureId structure,
                                   const AnyMapOptions& options) {
  auto impl = with_scheme(
      scheme, [&]<class Smr>() -> std::unique_ptr<detail::AnyMapImpl> {
        switch (structure) {
          case StructureId::kHMList:
            return cell<Smr, HarrisMichaelList<K, V, Smr>>(options);
          case StructureId::kHList:
            return cell<Smr, HarrisList<K, V, Smr>>(options);
          case StructureId::kHListWF:
            return cell<Smr, HarrisList<K, V, Smr, HarrisListWaitFreeTraits>>(
                options);
          case StructureId::kNMTree:
            return cell<Smr, NatarajanMittalTree<K, V, Smr>>(options);
          case StructureId::kHashMap:
            return cell<Smr, HashMap<K, V, Smr>>(options);
          case StructureId::kSkipList:
            return cell<Smr, SkipList<K, V, Smr>>(options);
          case StructureId::kSkipListEager:
            return cell<Smr, SkipList<K, V, Smr, SkipListEagerTraits>>(options);
          // Trait-ablation variants (scot_figs ablation_recovery /
          // ablation_unroll): real cells, so the ablation grids route
          // through run_case() with a real structure identity.
          case StructureId::kHListNoRecovery:
            return cell<Smr,
                        HarrisList<K, V, Smr, HarrisListNoRecoveryTraits>>(
                options);
          case StructureId::kHListSimple:
            return cell<Smr, HarrisList<K, V, Smr, HarrisListSimpleTraits>>(
                options);
          default:
            return nullptr;  // not a map-concept structure
        }
      });
  if (impl == nullptr) return std::nullopt;
  return AnyMap(scheme, structure, std::move(impl));
}

}  // namespace scot
