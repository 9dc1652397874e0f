#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

using hslb::cesm::ComponentKind;
using hslb::cesm::LayoutKind;

namespace {

bool close_enough(double a, double b) {
  return std::fabs(a - b) <= kObjectiveRelTol * std::max(1.0, std::fabs(b));
}

bool in_set(const std::vector<int>& set, int value) {
  return set.empty() || std::find(set.begin(), set.end(), value) != set.end();
}

std::string describe(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": " << got << " vs " << want;
  return os.str();
}

/// Layout-combined time of per-component times (the Table I objectives),
/// written out here rather than taken from the library.
double combined_time(LayoutKind layout, double ice, double lnd, double atm,
                     double ocn) {
  switch (layout) {
    case LayoutKind::kHybrid:
      return std::max(std::max(ice, lnd) + atm, ocn);
    case LayoutKind::kSequentialGroup:
      return std::max(ice + lnd + atm, ocn);
    case LayoutKind::kFullySequential:
      return ice + lnd + atm + ocn;
  }
  return 0.0;
}

}  // namespace

std::string check_layout_answer(const LayoutAnswer& a) {
  const ComponentKind kinds[] = {ComponentKind::kIce, ComponentKind::kLnd,
                                 ComponentKind::kAtm, ComponentKind::kOcn};
  std::map<ComponentKind, double> seconds;
  for (const ComponentKind kind : kinds) {
    const auto it = a.nodes.find(kind);
    if (it == a.nodes.end()) {
      return std::string("missing component ") + hslb::cesm::to_string(kind);
    }
    const int n = it->second;
    const auto floor_it = a.min_nodes.find(kind);
    const int floor = std::max(1, floor_it == a.min_nodes.end()
                                      ? 1
                                      : floor_it->second);
    if (n < floor || n > a.total_nodes) {
      return std::string("node count out of range for ") +
             hslb::cesm::to_string(kind);
    }
    seconds[kind] = a.perf.at(kind)(static_cast<double>(n));
  }
  const int ni = a.nodes.at(ComponentKind::kIce);
  const int nl = a.nodes.at(ComponentKind::kLnd);
  const int na = a.nodes.at(ComponentKind::kAtm);
  const int no = a.nodes.at(ComponentKind::kOcn);
  if (!in_set(a.atm_allowed, na)) {
    return "atmosphere count outside the allowed set";
  }
  if (!in_set(a.ocn_allowed, no)) {
    return "ocean count outside the allowed set";
  }
  const int N = a.total_nodes;
  switch (a.layout) {
    case LayoutKind::kHybrid:
      if (na + no > N) return "hybrid: n_atm + n_ocn exceeds N";
      if (ni + nl > na) return "hybrid: n_ice + n_lnd exceeds n_atm";
      break;
    case LayoutKind::kSequentialGroup:
      if (std::max({ni, nl, na}) + no > N) {
        return "sequential group: a group member plus n_ocn exceeds N";
      }
      break;
    case LayoutKind::kFullySequential:
      break;  // every n_j <= N, checked above
  }
  const double ti = seconds.at(ComponentKind::kIce);
  const double tl = seconds.at(ComponentKind::kLnd);
  if (a.layout == LayoutKind::kHybrid && std::isfinite(a.tsync) &&
      std::fabs(tl - ti) > a.tsync * (1.0 + kObjectiveRelTol) + 1e-9) {
    return describe("hybrid: |T_lnd - T_ice| exceeds Tsync",
                    std::fabs(tl - ti), a.tsync);
  }
  const double recomputed =
      combined_time(a.layout, ti, tl, seconds.at(ComponentKind::kAtm),
                    seconds.at(ComponentKind::kOcn));
  if (!close_enough(a.objective, recomputed)) {
    return describe("objective mismatch", a.objective, recomputed);
  }
  return "";
}

std::string check_scenario_answer(const hslb::scen::Scenario& scenario,
                                  const std::vector<int>& nodes,
                                  double objective) {
  if (nodes.size() != scenario.components.size()) {
    return "answer does not cover every component";
  }
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const hslb::scen::ScenComponent& c = scenario.components[j];
    if (nodes[j] < scenario.floor_of(static_cast<int>(j)) ||
        nodes[j] > scenario.machine.nodes) {
      return "node count out of range for " + c.name;
    }
    if (!in_set(c.allowed, nodes[j])) {
      return "node count outside the allowed set for " + c.name;
    }
  }
  if (hslb::scen::schedule_requirement(scenario, nodes) >
      scenario.machine.nodes) {
    return "schedule needs more nodes than the machine has";
  }
  const double recomputed = hslb::scen::schedule_time(scenario, nodes) +
                            hslb::scen::comm_penalty(scenario, nodes);
  if (!close_enough(objective, recomputed)) {
    return describe("objective mismatch", objective, recomputed);
  }
  const hslb::scen::Expectations& expect = scenario.expect;
  if (expect.optimum && !close_enough(objective, *expect.optimum)) {
    return describe("misses the planted optimum", objective, *expect.optimum);
  }
  const double slack = kObjectiveRelTol * std::max(1.0, std::fabs(objective));
  if (expect.bound && objective < *expect.bound - slack) {
    return describe("below the certified bound", objective, *expect.bound);
  }
  if (expect.incumbent && objective > *expect.incumbent + slack) {
    return describe("worse than the heuristic incumbent", objective,
                    *expect.incumbent);
  }
  return "";
}

}  // namespace perfbench
