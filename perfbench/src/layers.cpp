#include "layers.hpp"

#include <cmath>

namespace perfbench {

double ratio(double num, double den) {
  return den == 0.0 && !std::isnan(num) ? 0.0 : num / den;
}

void emit_solver_layers(Outcome* out, const hslb::obs::MetricsSnapshot& snap,
                        double ops, double solve_ms) {
  const auto c = [&snap](const char* name) {
    return snap.counter_value(name, kNoData);
  };
  const double nodes = c("minlp.nodes_explored");
  const double lp_solves = c("minlp.lp_solves");
  const double warm = c("minlp.lp_solves.warm");
  const double pivots =
      c("minlp.simplex_iterations.warm") + c("minlp.simplex_iterations.cold");
  const double lp_ms = c("minlp.lp_seconds") * 1e3;

  out->set("minlp.solve_ms", ratio(solve_ms, ops), "ms");
  out->set("minlp.self_ms", ratio(solve_ms - lp_ms, ops), "ms");
  out->set("minlp.nodes", ratio(nodes, ops), "count");
  out->set("minlp.node_ms", ratio(solve_ms, nodes), "ms");
  out->set("minlp.lp_solves", ratio(lp_solves, ops), "count");
  out->set("minlp.cuts", ratio(c("minlp.cuts_added"), ops), "count");
  out->set("minlp.epochs", ratio(c("minlp.epochs"), ops), "count");
  out->set("minlp.prune_frac", ratio(c("minlp.pruned.bound"), nodes), "ratio");
  out->set("minlp.warm_frac", ratio(warm, lp_solves), "ratio");
  out->set("minlp.phase1_skip_frac",
           ratio(c("minlp.lp_solves.warm_phase1_skip"), warm), "ratio");

  out->set("lp.ms", ratio(lp_ms, ops), "ms");
  out->set("lp.share", ratio(lp_ms, solve_ms), "ratio");
  out->set("lp.pivots", ratio(pivots, ops), "count");
  out->set("lp.pivot_us", ratio(lp_ms * 1e3, pivots), "us");
  out->set("lp.factorizations", ratio(c("minlp.lp.factorizations"), ops),
           "count");
  out->set("lp.refactorizations", ratio(c("minlp.lp.refactorizations"), ops),
           "count");
  out->set("lp.eta_updates", ratio(c("minlp.lp.eta_updates"), ops), "count");
  out->set("lp.factor_inherit_frac",
           ratio(c("minlp.lp.factor_inherits"), lp_solves), "ratio");
  out->set("lp.factor_ms", ratio(c("minlp.lp.factor_seconds") * 1e3, ops),
           "ms");
  out->set("lp.update_ms", ratio(c("minlp.lp.update_seconds") * 1e3, ops),
           "ms");
  out->set("lp.other_ms", ratio(c("minlp.lp.pivot_seconds") * 1e3, ops),
           "ms");
}

void emit_span_layers(Outcome* out,
                      const std::map<std::string, Tracer::Totals>& totals,
                      const std::vector<std::string>& spans, double ops) {
  for (const std::string& span : spans) {
    const auto it = totals.find(span);
    out->set(span + "_ms",
             it == totals.end() ? kNoData : ratio(it->second.self_ms, ops),
             "ms");
  }
}

}  // namespace perfbench
