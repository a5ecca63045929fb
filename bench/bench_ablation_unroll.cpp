// Ablation (paper §3.2, Figure 5 left vs right): the unrolled two-phase
// Do_Find needs 2 hazard dups per safe-zone step and 1 per zone step; the
// simple variant needs 3 everywhere.  Under HP each extra dup is a store to
// a shared-visible slot, so the unrolled version should win, most visibly
// at small key ranges where traversals are short and dup cost is a large
// fraction of the operation.
//
// Both variants are AnyMap cells (StructureId::kHList unrolled,
// StructureId::kHListSimple simple), so the runs go through the facade-
// driven run_case() and the JSON cells carry distinct structure identities
// that bench_diff keys on.
#include <cstdio>

#include "bench/fig_common.hpp"

using namespace scot;
using namespace scot::bench;

static CaseResult run_list(StructureId structure, unsigned threads,
                           std::uint64_t range, int ms, SchemeId scheme,
                           const char* variant) {
  CaseConfig cfg;
  cfg.structure = structure;
  cfg.scheme = scheme;
  cfg.threads = threads;
  cfg.key_range = range;
  cfg.millis = ms;
  cfg.runs = env_runs();
  apply_session_flags(cfg);
  const CaseResult r = run_case(cfg);
  fig_record(std::string("unroll ablation, ") + variant, cfg, r);
  return r;
}

int main(int argc, char** argv) {
  fig_init(argc, argv, "ablation_unroll");
  const int ms = env_ms(300);
  std::printf(
      "SCOT ablation — §3.2 unrolled (Fig 5 right) vs simple (Fig 5 left) "
      "Do_Find\n\n");
  for (SchemeId scheme : {SchemeId::kHP, SchemeId::kHE}) {
    for (std::uint64_t range : {std::uint64_t{512}, std::uint64_t{10000}}) {
      Table t({"threads", "unrolled Mops", "simple Mops", "speedup"});
      for (unsigned th : env_threads()) {
        const CaseResult fast =
            run_list(StructureId::kHList, th, range, ms, scheme, "unrolled");
        const CaseResult simple = run_list(StructureId::kHListSimple, th,
                                           range, ms, scheme, "simple");
        t.add_row({std::to_string(th), format_double(fast.mops, 2),
                   format_double(simple.mops, 2),
                   format_double(simple.mops > 0 ? fast.mops / simple.mops : 0,
                                 3)});
      }
      std::printf("== %s, key range %llu ==\n", scheme_name(scheme),
                  static_cast<unsigned long long>(range));
      t.print();
      std::printf("\n");
    }
  }
  return fig_finish();
}
