// Scheme × container grid: MSQueue, TreiberStack, and the Michael deque
// under all 7 reclamation schemes (ROADMAP "Beyond maps"; DESIGN.md §11).
// Two workloads per container:
//   mixed  — every worker rolls 50% push / 50% pop per op (the container
//            analogue of the paper's headline write-heavy mix)
//   split  — even workers are pure producers, odd workers pure consumers
//            (the queue's natural serving shape; skipped at 1 thread where
//            it degenerates to the mixed roll)
// Expected shape: the stack's single-CAS top makes it the contention
// ceiling (restarts high, recoveries 0 by construction); the queue's
// help-swing recoveries grow with producers; the deque pays the anchor
// indirection but stays flat across schemes if the guard API is truly
// structure-agnostic — that flatness is what this grid is for.
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv, "containers");
  std::printf(
      "SCOT reproduction — scheme x container grid (queue/stack/deque)\n\n");
  struct Grid {
    const char* mixed_title;
    const char* split_title;
    scot::StructureId structure;
  };
  constexpr Grid kGrids[] = {
      {"Containers: MS queue, mixed 50/50",
       "Containers: MS queue, split producers/consumers",
       scot::StructureId::kMSQueue},
      {"Containers: Treiber stack, mixed 50/50",
       "Containers: Treiber stack, split producers/consumers",
       scot::StructureId::kTreiberStack},
      {"Containers: Michael deque, mixed 50/50",
       "Containers: Michael deque, split producers/consumers",
       scot::StructureId::kDeque},
  };
  for (const Grid& g : kGrids) {
    // One invocation emits both workload variants, so the split flag is
    // set per grid (it reaches the cells through the session flags).
    for (const bool split : {false, true}) {
      fig_session().flags.split = split;
      GridSpec spec{split ? g.split_title : g.mixed_title, g.structure, 2048};
      spec.read_pct = 0;  // containers have no read op
      spec.insert_pct = 50;
      spec.delete_pct = 50;
      spec.sample_memory = true;
      run_grid(spec, 300);
    }
  }
  return fig_finish();
}
