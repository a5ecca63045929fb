// tree-update cells: NMTree, the Natarajan-Mittal tree with SCOT (paper
// Fig 9b), under each scheme.
#include "cell.hpp"
#include "core/nm_tree.hpp"

namespace perfbench {

CellResult run_tree_cell(const CellContext& ctx, const CellPlan& plan) {
  return with_domain(plan.scheme, [&]<class D>() {
    using Tree = scot::NatarajanMittalTree<std::uint64_t, std::uint64_t, D>;
    using Target = MapTarget<D, Tree>;
    return run_cell<Target>(ctx, plan,
                            [&] { return std::make_unique<Target>(ctx.smr); });
  });
}

}  // namespace perfbench
