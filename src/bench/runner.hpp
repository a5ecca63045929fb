// Entry point of the benchmark harness: runs one (structure, scheme,
// threads, workload) cell and reports throughput / latency / memory
// overhead / restart statistics.  The single facade-driven
// implementation (runner.cpp) builds the cell through its concept's
// facade — scot::AnyMap, scot::AnyContainer or scot::KvStore — so scheme
// and structure are runtime values, and every concept runs through the
// same measured loop.  Virtual dispatch is per *operation*; the protect()
// fast path inside an operation is the fully typed code.
#pragma once

#include "bench/options.hpp"

namespace scot::bench {

CaseResult run_case(const CaseConfig& cfg);

}  // namespace scot::bench
