// list-read cells: HListWF, the Harris list with SCOT and the wait-free
// search (paper Fig 8), under each scheme.
#include "cell.hpp"
#include "core/harris_list.hpp"

namespace perfbench {

CellResult run_list_cell(const CellContext& ctx, const CellPlan& plan) {
  return with_domain(plan.scheme, [&]<class D>() {
    using List = scot::HarrisList<std::uint64_t, std::uint64_t, D,
                                  scot::HarrisListWaitFreeTraits>;
    using Target = MapTarget<D, List>;
    return run_cell<Target>(ctx, plan,
                            [&] { return std::make_unique<Target>(ctx.smr); });
  });
}

}  // namespace perfbench
