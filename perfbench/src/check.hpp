// Answer checks that do not trust the solver.
//
// Each check re-evaluates an answer against the model's own data -- fitted
// curves, the Table I layout rules, allowed sets, memory floors, the
// scenario schedule and machine -- and compares the objective it recomputes
// with the one the solver reported.  An empty string means the answer
// passed; otherwise the string says why it failed.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "hslb/cesm/component.hpp"
#include "hslb/cesm/layout.hpp"
#include "hslb/perf/perf_model.hpp"
#include "hslb/scen/scenario.hpp"

namespace perfbench {

/// Relative tolerance between a recomputed objective and the solver's.
constexpr double kObjectiveRelTol = 1e-6;

/// One Table I layout problem and the answer to check.
struct LayoutAnswer {
  hslb::cesm::LayoutKind layout = hslb::cesm::LayoutKind::kHybrid;
  int total_nodes = 0;
  std::map<hslb::cesm::ComponentKind, hslb::perf::PerfModel> perf;
  std::vector<int> atm_allowed;  ///< empty: any count
  std::vector<int> ocn_allowed;  ///< empty: any count
  std::map<hslb::cesm::ComponentKind, int> min_nodes;
  double tsync = std::numeric_limits<double>::infinity();
  std::map<hslb::cesm::ComponentKind, int> nodes;  ///< the answer
  double objective = 0.0;                          ///< the solver's value
};

std::string check_layout_answer(const LayoutAnswer& answer);

/// Scenario answer: per-component node counts in component order.  When
/// the scenario carries a planted optimum or a certified bracket, the
/// objective must also land on it (within kObjectiveRelTol).
std::string check_scenario_answer(const hslb::scen::Scenario& scenario,
                                  const std::vector<int>& nodes,
                                  double objective);

}  // namespace perfbench
