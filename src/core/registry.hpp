// Runtime structure registry: the closed set of data structures as values.
//
// Like src/smr/registry.hpp this is the single source of truth for structure
// identity: one kStructureInfos row per StructureId carries its name, its
// container concept and its paper-CLI mode, and the bench options, the JSON
// reports and the facades' make() checks all resolve through it.  Structures
// are grouped by *container concept* (ContainerKind): uint64-keyed maps,
// string-keyed kv stores, and the queue/stack/deque shapes each have their
// own iteration table and their own type-erased facade (scot::AnyMap,
// scot::KvStore, scot::AnyContainer), because their op surfaces differ — but
// they share one StructureId namespace so JSON cell keys, CLI names and
// grid labels never collide across concepts.
//
// There is no runtime factory table: each facade's make() resolves the
// scheme with with_scheme() (smr/smr.hpp) and the structure with a switch
// in the concept's one translation unit.  This header stays light — no
// structure or domain headers — so name resolution never pays for template
// instantiation.
#pragma once

#include <optional>
#include <string_view>

#include "smr/registry.hpp"

namespace scot {

enum class StructureId {
  kHMList,
  kHList,
  kHListWF,
  kNMTree,
  kHashMap,
  kSkipList,        // Fraser-style optimistic traversal with SCOT
  kSkipListEager,   // Herlihy-Shavit-style eager unlink (baseline)
  kHListNoRecovery, // trait ablation §3.2.1: restart-from-head, no recovery
  kHListSimple,     // trait ablation §3.2: simple (Fig 5 left) Do_Find
  kKvHash,          // string-keyed resizable hash map (src/kv/, DESIGN.md §10)
  kMSQueue,         // Michael-Scott queue (core/ms_queue.hpp, DESIGN.md §11)
  kTreiberStack,    // Treiber stack (core/treiber_stack.hpp)
  kDeque,           // Michael CAS-based deque (core/deque.hpp)
  kNone,            // SMR-layer microbench cells (no data structure)
};

// The container concept a StructureId belongs to.  Grids, CLI resolution,
// the bench runner's dispatch and the facade make() checks all branch on
// this — never on ad-hoc StructureId comparisons.
enum class ContainerKind {
  kMap,    // uint64 → uint64 ordered/unordered maps (scot::AnyMap)
  kKv,     // string-keyed serving store (scot::KvStore)
  kQueue,  // FIFO: push_back / pop_front (scot::AnyQueue)
  kStack,  // LIFO: push_front / pop_front (scot::AnyStack)
  kDeque,  // both ends (scot::AnyDeque)
  kNone,   // StructureId::kNone — no data structure at all
};

inline const char* container_kind_name(ContainerKind k) noexcept {
  switch (k) {
    case ContainerKind::kMap: return "map";
    case ContainerKind::kKv: return "kv";
    case ContainerKind::kQueue: return "queue";
    case ContainerKind::kStack: return "stack";
    case ContainerKind::kDeque: return "deque";
    case ContainerKind::kNone: return "none";
  }
  return "?";
}

// --- per-concept iteration tables -----------------------------------------

// The uint64-keyed map structures every figure grid and the AnyMap
// cross-product tests iterate.
inline constexpr StructureId kAllStructures[] = {
    StructureId::kHMList,  StructureId::kHList,    StructureId::kHListWF,
    StructureId::kNMTree,  StructureId::kHashMap,  StructureId::kSkipList,
    StructureId::kSkipListEager};

// Trait-ablation variants of the Harris list (scot_figs ablation_*): real
// AnyMap cells with name-resolvable identities so their JSON cells diff
// cleanly, but deliberately absent from kAllStructures, so no figure grid
// iterates them.
inline constexpr StructureId kAblationStructures[] = {
    StructureId::kHListNoRecovery, StructureId::kHListSimple};

// String-keyed structures served through KvStore (src/kv/).  A
// separate table because the uint64-keyed grids above cannot iterate them:
// the op surface (string_view keys, blob values) is different, so they get
// their own cross-product tests and "kv:" bench cells.
inline constexpr StructureId kKvStructures[] = {StructureId::kKvHash};

// The queue/stack/deque concept (core/ms_queue.hpp, core/treiber_stack.hpp,
// core/deque.hpp), served through scot::AnyContainer and the per-concept
// facades.  One table per kind for single-concept grids, plus the combined
// table scot_figs containers and the cross-product tests iterate.
inline constexpr StructureId kQueueStructures[] = {StructureId::kMSQueue};
inline constexpr StructureId kStackStructures[] = {StructureId::kTreiberStack};
inline constexpr StructureId kDequeStructures[] = {StructureId::kDeque};
inline constexpr StructureId kContainerStructures[] = {
    StructureId::kMSQueue, StructureId::kTreiberStack, StructureId::kDeque};

// One row per StructureId, in enum order.  `mode` is the paper-artifact CLI
// spelling (Appendix A.5, extended with the container modes; container
// modes take a push/pop mix — parse_cli enforces <read%> = 0 for them), or
// nullptr for structures the CLI cannot name.  Adding a structure is one
// row here plus one case in its concept's make() (DESIGN.md §6, §11).
struct StructureInfo {
  StructureId id;
  const char* name;
  ContainerKind kind;
  const char* mode;
};

inline constexpr StructureInfo kStructureInfos[] = {
    {StructureId::kHMList, "HMList", ContainerKind::kMap, "listhm"},
    {StructureId::kHList, "HList", ContainerKind::kMap, "listlf"},
    {StructureId::kHListWF, "HListWF", ContainerKind::kMap, "listwf"},
    {StructureId::kNMTree, "NMTree", ContainerKind::kMap, "tree"},
    {StructureId::kHashMap, "HashMap", ContainerKind::kMap, "hash"},
    {StructureId::kSkipList, "SkipList", ContainerKind::kMap, "skip"},
    {StructureId::kSkipListEager, "SkipListHS", ContainerKind::kMap, "skiphs"},
    {StructureId::kHListNoRecovery, "HListNoRec", ContainerKind::kMap,
     nullptr},
    {StructureId::kHListSimple, "HListSimple", ContainerKind::kMap, nullptr},
    {StructureId::kKvHash, "KvHash", ContainerKind::kKv, nullptr},
    {StructureId::kMSQueue, "MSQueue", ContainerKind::kQueue, "queue"},
    {StructureId::kTreiberStack, "TreiberStack", ContainerKind::kStack, "stack"},
    {StructureId::kDeque, "Deque", ContainerKind::kDeque, "deque"},
    {StructureId::kNone, "none", ContainerKind::kNone, nullptr},
};

inline constexpr StructureInfo structure_info(StructureId s) noexcept {
  for (const StructureInfo& info : kStructureInfos) {
    if (info.id == s) return info;
  }
  return StructureInfo{s, "?", ContainerKind::kNone, nullptr};
}

inline constexpr ContainerKind container_kind(StructureId s) noexcept {
  return structure_info(s).kind;
}

inline constexpr const char* structure_name(StructureId s) noexcept {
  return structure_info(s).name;
}

// Reverse of structure_name(); used when loading JSON reports.  Every row
// resolves — "none", the ablation variants and the kv and container
// structures included — even though only kAllStructures feeds the
// map-shaped figure grids.
inline std::optional<StructureId> structure_from_name(std::string_view name) {
  for (const StructureInfo& info : kStructureInfos) {
    if (name == info.name) return info.id;
  }
  return std::nullopt;
}

inline std::optional<StructureId> structure_from_mode(std::string_view mode) {
  for (const StructureInfo& info : kStructureInfos) {
    if (info.mode != nullptr && mode == info.mode) return info.id;
  }
  return std::nullopt;
}

}  // namespace scot
