// Per-layer metrics of the traced run.
//
// A workload emits the metrics of the layers it exercises and no others;
// perfbench/run.py fills the rest of BENCHMARK.json's per_layer list with 0,
// so that list is the only one that names every layer.  A layer the
// workload exercises but whose counter, histogram or span recorded nothing
// reads kNoData, and the harness then fails the run instead of printing 0.
// Times and counts are per operation of the workload (one pipeline run, one
// solve, one request, one horizon) unless the name says otherwise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hslb/obs/metrics.hpp"

namespace perfbench {

/// num / den; 0 when den is 0 and num is known; kNoData propagates.
double ratio(double num, double den);

/// minlp.* and lp.* from the solver counters a Registry collected while the
/// workload ran `ops` operations that spent `solve_ms` inside
/// minlp::solve.  lp.other_ms is SolveStats::lp_pivot_seconds: the LP time
/// left after factor and update time, not pivot-loop time alone.
void emit_solver_layers(Outcome* out, const hslb::obs::MetricsSnapshot& snap,
                        double ops, double solve_ms);

/// Per-op self time of each named benchmark span as `<span>_ms` (span
/// "cesm.gather" -> cesm.gather_ms).
void emit_span_layers(Outcome* out,
                      const std::map<std::string, Tracer::Totals>& totals,
                      const std::vector<std::string>& spans, double ops);

}  // namespace perfbench
