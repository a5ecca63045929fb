// Figure 10: average number of retired-but-not-yet-reclaimed nodes for the
// lists (lower is better).  Expected shape: HP/HPopt lowest, EBR highest.
// Deviation from the paper: we *can* report Hyaline-1S because our pending
// gauge is domain-wide rather than per-thread (see DESIGN.md §8).
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv, "fig10");
  std::printf("SCOT reproduction — Figure 10 (list memory overhead)\n\n");
  GridSpec a{"Fig 10a: Harris-Michael list, range 512", StructureId::kHMList,
             512, Metric::kAvgPending};
  a.include_nr = false;
  run_grid(a, 300);
  GridSpec b{"Fig 10a: Harris list (SCOT), range 512", StructureId::kHListWF,
             512, Metric::kAvgPending};
  b.include_nr = false;
  run_grid(b, 300);
  GridSpec c{"Fig 10b: Harris-Michael list, range 10,000",
             StructureId::kHMList, 10000, Metric::kAvgPending};
  c.include_nr = false;
  run_grid(c, 300);
  GridSpec d{"Fig 10b: Harris list (SCOT), range 10,000",
             StructureId::kHListWF, 10000, Metric::kAvgPending};
  d.include_nr = false;
  run_grid(d, 300);
  return fig_finish();
}
