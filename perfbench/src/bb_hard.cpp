// bb_hard: minlp::solve at default SolverOptions (one thread) with
// individual-binary branching, on Table I layout models and on medium-grade
// corpus DAG scenarios.  No fitting and no service: nearly all the time is
// in minlp / lp / linalg.
//
// The instance set is canonical -- the Table I models are fitted from the
// 1-degree campaign at seed 2014 that bench_minlp_parallel uses, and the
// scenarios come from the corpus generator at its default seed -- because
// B&B work on binary-branching models swings several-fold under a 1-2%
// change of the curves, which would drown any solver change in input noise.
// Seven Table I models and the eight bracket scenarios make 15 instances.
// The workload seed sets the solve order.  Every answer is checked against
// the model data, and every later solve of an instance must reproduce the
// first one bit for bit.
#include <algorithm>
#include <cmath>
#include <random>

#include "check.hpp"
#include "hslb/cesm/configs.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/hslb/resilience.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"
#include "hslb/scen/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hslb::cesm::ComponentKind;
using hslb::cesm::LayoutKind;

struct Instance {
  std::string name;
  bool layout = false;  ///< Table I model (else corpus scenario)
  hslb::core::LayoutModelSpec spec;
  hslb::scen::Scenario scenario;
  /// Objective of the heuristic answer (grid search for Table I models,
  /// the greedy rung for scenarios): the reference that uses no solver.
  double reference = 0.0;
};

struct Solved {
  double objective = 0.0;
  long nodes = 0;
  std::vector<double> x;
  hslb::core::Allocation allocation;  ///< Table I models only
};

/// Table I specs for one layout, fitted from the canonical campaign.
std::vector<Instance> layout_instances(const hslb::cesm::CaseConfig& one,
                                       LayoutKind layout,
                                       std::initializer_list<int> totals) {
  const auto campaign = hslb::cesm::gather_benchmarks(
      one, layout, std::vector<int>{128, 512, 2048, 8192, 32768}, 2014);
  std::map<ComponentKind, hslb::perf::PerfModel> fits;
  for (const ComponentKind kind : hslb::cesm::kModeledComponents) {
    const hslb::cesm::Series series =
        hslb::cesm::series_for(campaign.samples, kind);
    fits[kind] = hslb::perf::fit(series.nodes, series.seconds).model;
  }
  std::vector<Instance> out;
  for (const int total : totals) {
    Instance inst;
    inst.name = std::string(hslb::cesm::to_string(layout)) + "_binary_" +
                std::to_string(total);
    inst.layout = true;
    inst.spec.layout = layout;
    inst.spec.total_nodes = total;
    inst.spec.min_nodes = one.min_nodes;
    inst.spec.use_sos = false;
    inst.spec.perf = fits;
    inst.spec.atm_allowed = one.atm_allowed;
    inst.spec.ocn_allowed = one.ocn_allowed;
    out.push_back(std::move(inst));
  }
  return out;
}

/// Independent check of a first solve; empty when it passes.
std::string check_solve(const Instance& inst,
                        const hslb::core::LayoutModelVars& layout_vars,
                        const hslb::scen::ScenarioModelVars& scen_vars,
                        const hslb::minlp::MinlpResult& result) {
  if (result.status != hslb::minlp::MinlpStatus::kOptimal) {
    return std::string("status ") + hslb::minlp::to_string(result.status);
  }
  const auto node_count = [&result](std::size_t index) {
    return static_cast<int>(std::lround(result.x[index]));
  };
  if (!inst.layout) {
    std::vector<int> nodes;
    for (const std::size_t index : scen_vars.nodes) {
      nodes.push_back(node_count(index));
    }
    return check_scenario_answer(inst.scenario, nodes, result.objective);
  }
  LayoutAnswer answer;
  answer.layout = inst.spec.layout;
  answer.total_nodes = inst.spec.total_nodes;
  answer.perf = inst.spec.perf;
  answer.atm_allowed = inst.spec.atm_allowed;
  answer.ocn_allowed = inst.spec.ocn_allowed;
  answer.min_nodes = inst.spec.min_nodes;
  for (const auto& [kind, index] : layout_vars.nodes) {
    answer.nodes[kind] = node_count(index);
  }
  answer.objective = result.objective;
  return check_layout_answer(answer);
}

}  // namespace

Outcome run_bb_hard(const RunOptions& options) {
  Outcome out;
  std::vector<Instance> instances;
  double parse_ms = 0.0;

  const auto setup = [&] {
    instances.clear();
    const hslb::cesm::CaseConfig one = hslb::cesm::one_degree_case();
    for (Instance& inst :
         layout_instances(one, LayoutKind::kHybrid, {2048, 4096})) {
      instances.push_back(std::move(inst));
    }
    for (Instance& inst :
         layout_instances(one, LayoutKind::kSequentialGroup, {2048})) {
      instances.push_back(std::move(inst));
    }
    for (Instance& inst : layout_instances(one, LayoutKind::kFullySequential,
                                           {512, 1024, 2048, 4096})) {
      instances.push_back(std::move(inst));
    }
    hslb::scen::GenerateOptions generate;
    generate.scenarios_per_family = 3;
    const auto corpus = hslb::scen::generate_corpus(generate);
    // Medium-grade DAG scenarios with a certified bracket (planted ones
    // are separable chains), read back through the DSL as a corpus file
    // would be.
    const Clock::time_point parse_start = Clock::now();
    for (const hslb::scen::GeneratedScenario& g : corpus) {
      if (g.scenario.name.rfind("medium_", 0) != 0 ||
          g.scenario.expect.optimum.has_value()) {
        continue;
      }
      Instance inst;
      inst.name = g.scenario.name;
      inst.scenario =
          hslb::scen::parse_scenario(hslb::scen::print_scenario(g.scenario));
      instances.push_back(std::move(inst));
    }
    parse_ms = ms_between(parse_start, Clock::now());
    for (Instance& inst : instances) {
      inst.reference =
          inst.layout
              ? hslb::core::heuristic_allocation(inst.spec).predicted_total
              : hslb::scen::heuristic_allocation(inst.scenario).objective;
    }
    std::mt19937_64 rng(mix_seed(options.seed, 0xbb));
    std::shuffle(instances.begin(), instances.end(), rng);
  };
  out.set("setup_s", timed_setup(setup), "s");

  hslb::minlp::SolverOptions solver;
  solver.use_sos_branching = false;
  std::vector<Solved> first(instances.size());
  std::vector<bool> have_first(instances.size(), false);
  std::vector<bool> slot_ok(instances.size(), true);

  CycleWorkload workload;
  workload.cycle_len = instances.size();
  for (const Instance& inst : instances) {
    workload.slot_names.push_back(inst.name);
  }
  workload.spans = {"hslb.build", "scen.build"};
  workload.op = [&](std::size_t i, const PhaseSinks& sinks) {
    const hslb::obs::Install install(sinks.options());
    const Instance& inst = instances[i];
    hslb::core::LayoutModelVars layout_vars;
    hslb::scen::ScenarioModelVars scen_vars;
    hslb::minlp::Model model;
    if (inst.layout) {
      const Span span("hslb.build");
      model = hslb::core::build_layout_model(inst.spec, &layout_vars);
    } else {
      const Span span("scen.build");
      hslb::scen::BuildOptions build;
      build.use_sos = false;
      model = hslb::scen::build_scenario_model(inst.scenario, &scen_vars,
                                               build);
    }
    hslb::minlp::MinlpResult result;
    {
      const Span span("minlp.solve");
      result = hslb::minlp::solve(model, solver);
    }
    const Solved s{result.objective, result.stats.nodes_explored, result.x,
                   {}};
    ++out.attempted;
    if (!have_first[i]) {
      have_first[i] = true;
      first[i] = s;
      if (inst.layout && !result.x.empty()) {
        first[i].allocation =
            hslb::core::extract_allocation(inst.spec, layout_vars, result);
      }
      const std::string why =
          check_solve(inst, layout_vars, scen_vars, result);
      if (!why.empty()) {
        slot_ok[i] = false;
        out.note(inst.name + ": " + why);
      }
    }
    if (!slot_ok[i]) {
      ++out.failed;
    } else if (s.objective != first[i].objective || s.x != first[i].x ||
               s.nodes != first[i].nodes) {
      out.fail(inst.name + ": repeat solve differs from the first");
    }
  };
  measure_cycles(options, workload, &out);

  // Answer quality: against the heuristic reference, and against the
  // simulator run at the chosen Table I allocation.
  const hslb::cesm::CaseConfig one = hslb::cesm::one_degree_case();
  std::vector<double> ratio;
  std::vector<double> pred_err;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    ratio.push_back(first[i].objective / inst.reference);
    if (inst.layout) {
      const hslb::cesm::RunResult run = hslb::cesm::run_case(
          one, first[i].allocation.as_layout(inst.spec.layout), 2015);
      pred_err.push_back(100.0 *
                         std::fabs(run.model_seconds - first[i].objective) /
                         run.model_seconds);
    }
  }
  out.set("objective_ratio", mean(ratio), "ratio");
  out.set("pred_err_pct", median(pred_err), "%");
  out.set("scen.parse_ms", parse_ms, "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
