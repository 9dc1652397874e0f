#include "hslb/rebal/loop.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "hslb/common/error.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/obs/obs.hpp"
#include "hslb/scen/build.hpp"

namespace hslb::rebal {
namespace {

/// FNV-1a accumulator for the replay fingerprint.
struct Fnv {
  std::uint64_t hash = 14695981039346656037ull;

  void mix_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  void mix(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    mix_bytes(&bits, sizeof(bits));
  }
  void mix(long value) {
    const auto v = static_cast<std::uint64_t>(value);
    mix_bytes(&v, sizeof(v));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
  }
};

std::vector<int> to_allocation_vector(const scen::Scenario& scenario,
                                      const scen::ScenAllocation& alloc) {
  std::vector<int> nodes(scenario.components.size(), 0);
  for (std::size_t j = 0; j < scenario.components.size(); ++j) {
    nodes[j] = alloc.nodes.at(scenario.components[j].name);
  }
  return nodes;
}

struct SolveOutcome {
  std::vector<int> allocation;
  double objective = 0.0;
  bool heuristic = false;
  bool warm_used = false;
  long warm_primes = 0;
  long nodes_explored = 0;
  long lp_solves = 0;
  long simplex_iterations = 0;
  double wall_seconds = 0.0;
};

/// One in-loop allocation solve: warm (or cold) branch-and-bound with the
/// heuristic grid search as the fallback rung when the node budget runs out
/// without an incumbent.
SolveOutcome solve_allocation(const scen::Scenario& scenario,
                              const LoopOptions& options,
                              const minlp::WarmStart* warm,
                              minlp::WarmStart* captured) {
  HSLB_SPAN("rebal.resolve");
  SolveOutcome out;

  scen::ScenarioModelVars vars;
  const minlp::Model model = scen::build_scenario_model(scenario, &vars);
  minlp::SolverOptions sopts;
  sopts.threads = options.solver_threads;
  sopts.max_nodes = options.solver_max_nodes;
  sopts.capture_warm_start = true;
  if (options.warm && warm != nullptr && !warm->empty()) {
    sopts.warm_start = warm;
  }
  // Time the solver alone: model lowering is identical for the warm and
  // cold arms, so including it would only dilute the comparison.
  common::WallTimer timer;
  minlp::MinlpResult result = minlp::solve(model, sopts);
  out.wall_seconds = timer.seconds();
  out.nodes_explored = result.stats.nodes_explored;
  out.lp_solves = result.stats.lp_solves;
  out.simplex_iterations = result.stats.simplex_iterations;
  out.warm_primes = result.stats.warm_incumbent_primes;
  out.warm_used = result.stats.warm_lp_solves > 0;

  if (!result.x.empty()) {
    out.allocation.resize(scenario.components.size());
    for (std::size_t j = 0; j < scenario.components.size(); ++j) {
      out.allocation[j] =
          static_cast<int>(std::lround(result.x[vars.nodes[j]]));
    }
    out.objective = scen::evaluate_objective(scenario, out.allocation);
    if (captured != nullptr) {
      *captured = std::move(result.warm);
    }
  } else {
    // Budget exhausted (or infeasible numerics): the in-loop fallback rung
    // is the deterministic heuristic grid search -- always answers.
    HSLB_COUNT("rebal.heuristic_fallbacks", 1);
    const scen::ScenAllocation heuristic =
        scen::heuristic_allocation(scenario);
    out.allocation = to_allocation_vector(scenario, heuristic);
    out.objective = heuristic.objective;
    out.heuristic = true;
  }
  return out;
}

}  // namespace

DetectorScore score_detector(const std::vector<long>& fire_steps,
                             const std::vector<long>& shift_steps,
                             long match_window) {
  DetectorScore score;
  std::vector<bool> fire_used(fire_steps.size(), false);
  for (const long shift : shift_steps) {
    bool matched = false;
    for (std::size_t i = 0; i < fire_steps.size(); ++i) {
      if (!fire_used[i] && fire_steps[i] >= shift &&
          fire_steps[i] - shift <= match_window) {
        fire_used[i] = true;
        matched = true;
        break;
      }
    }
    if (matched) {
      ++score.true_positives;
    } else {
      ++score.false_negatives;
    }
  }
  for (const bool used : fire_used) {
    if (!used) {
      ++score.false_positives;
    }
  }
  if (score.true_positives + score.false_positives > 0) {
    score.precision =
        static_cast<double>(score.true_positives) /
        static_cast<double>(score.true_positives + score.false_positives);
  }
  if (score.true_positives + score.false_negatives > 0) {
    score.recall =
        static_cast<double>(score.true_positives) /
        static_cast<double>(score.true_positives + score.false_negatives);
  }
  return score;
}

HorizonResult run_horizon(const scen::Scenario& scenario,
                          const LoopOptions& options) {
  HSLB_SPAN("rebal.horizon");
  HSLB_REQUIRE(options.horizon >= 1, "horizon must be at least one step");
  const DriftSimulator sim(scenario, options.seed);
  const scen::Scenario& base = sim.base();
  const std::size_t n_comp = base.components.size();
  const double machine_cores = static_cast<double>(base.machine.nodes) *
                               static_cast<double>(base.machine.cores_per_node);

  HorizonResult out;
  Fnv fnv;

  // Allocation the horizon starts on: the offline HSLB solve of the base
  // (undrifted) scenario.  Both arms start here; the static arm keeps it.
  minlp::WarmStart warm_state;
  SolveOutcome current =
      solve_allocation(base, options, nullptr, &warm_state);
  out.initial_allocation = current.allocation;
  for (const int nodes : current.allocation) {
    fnv.mix(static_cast<long>(nodes));
  }

  ImbalanceDetector detector(options.detector);
  std::vector<ScaleTracker> trackers(n_comp, ScaleTracker(options.tracker));
  // Scales the current allocation was solved for; the detector measures
  // reality against these, and a rebalance re-freezes them.
  std::vector<double> frozen_scales(n_comp, 1.0);
  std::vector<double> tracked_scales(n_comp, 1.0);
  std::vector<double> loads(n_comp, 0.0);

  std::vector<double> base_seconds(n_comp, 0.0);
  const auto refresh_base_seconds = [&] {
    for (std::size_t j = 0; j < n_comp; ++j) {
      base_seconds[j] = base.components[j].curve(
          static_cast<double>(current.allocation[j]));
    }
  };
  refresh_base_seconds();

  for (long step = 0; step < options.horizon; ++step) {
    // Ground-truth cost of running this step on the current allocation.
    const scen::Scenario truth = sim.scenario_at(step);
    const double step_seconds =
        scen::evaluate_objective(truth, current.allocation);
    out.step_seconds_sum += step_seconds;
    out.core_hours += step_seconds * machine_cores / 3600.0;
    fnv.mix(step_seconds);

    // Observe, track, detect.
    for (std::size_t j = 0; j < n_comp; ++j) {
      const double observed =
          sim.observed_seconds(static_cast<int>(j), step,
                               current.allocation[j]);
      fnv.mix(observed);
      const double ratio = observed / base_seconds[j];
      const ScaleTracker::Update update = trackers[j].observe(ratio);
      tracked_scales[j] = update.scale;
      if (update.regime_shift) {
        ++out.regime_shifts_flagged;
        HSLB_COUNT("rebal.regime_shifts", 1);
      }
      loads[j] = ratio / frozen_scales[j];
    }
    if (!detector.observe(loads)) {
      continue;
    }
    ++out.detector_fires;
    out.fire_steps.push_back(step);
    fnv.mix(step);
    HSLB_COUNT("rebal.fires", 1);
    if (!options.rebalance) {
      continue;
    }

    // Re-fit and re-solve.  The refit scenario scales every base curve by
    // its tracked estimate; the warm path re-enters the solver from the
    // previous incumbent/basis, the cold path from scratch.
    const scen::Scenario refit = scaled_scenario(base, tracked_scales);
    minlp::WarmStart captured;
    SolveOutcome candidate =
        solve_allocation(refit, options, &warm_state, &captured);
    out.resolve_nodes += candidate.nodes_explored;
    out.resolve_lp_solves += candidate.lp_solves;
    out.resolve_simplex_iterations += candidate.simplex_iterations;
    out.resolve_warm_primes += candidate.warm_primes;
    out.resolve_wall_seconds += candidate.wall_seconds;
    if (candidate.heuristic) {
      ++out.heuristic_fallbacks;
    } else {
      warm_state = std::move(captured);
    }

    // Charge the modeled rebalance overhead whether or not the answer is
    // adopted -- the work was spent either way.
    const double overhead =
        options.rebalance_overhead_steps * step_seconds * machine_cores /
        3600.0;
    out.core_hours += overhead;
    out.overhead_core_hours += overhead;

    // Adopt only improvements under the refit model; the solver's answer is
    // optimal for it, but the heuristic rung can lose to the incumbent
    // allocation.
    const double current_refit_objective =
        scen::evaluate_objective(refit, current.allocation);
    const double candidate_refit_objective =
        scen::evaluate_objective(refit, candidate.allocation);
    if (candidate_refit_objective <
        current_refit_objective * (1.0 - 1e-9)) {
      RebalanceEvent event;
      event.step = step;
      event.heuristic = candidate.heuristic;
      event.warm_used = candidate.warm_used;
      event.warm_primes = candidate.warm_primes;
      event.nodes_explored = candidate.nodes_explored;
      event.lp_solves = candidate.lp_solves;
      event.simplex_iterations = candidate.simplex_iterations;
      event.objective = candidate_refit_objective;
      event.wall_seconds = candidate.wall_seconds;
      event.allocation = candidate.allocation;
      out.events.push_back(std::move(event));
      ++out.rebalances;
      HSLB_COUNT("rebal.rebalances", 1);
      current.allocation = candidate.allocation;
      refresh_base_seconds();
      for (const int nodes : current.allocation) {
        fnv.mix(static_cast<long>(nodes));
      }
    }
    // Either way the model baseline the detector compares against is now
    // the tracked state, and buffered pre-rebalance history is stale.
    frozen_scales = tracked_scales;
    detector.reset_window();
  }

  out.steps = options.horizon;
  out.final_allocation = current.allocation;
  out.replay_fingerprint = fnv.hex();
  return out;
}

}  // namespace hslb::rebal
