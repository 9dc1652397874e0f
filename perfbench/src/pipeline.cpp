// pipeline: core::run_hslb, the quickstart path (gather -> fit -> solve ->
// execute), over a cycle of case x layout x target size.
//
// The cycle holds the 1-degree case at 128 / 512 / 2048 nodes in all three
// layouts plus a 1/8-degree hybrid run at 8192 nodes, twice, whose larger
// campaign and tree form the tail.  Each entry's campaign seed is fixed and
// the workload seed sets the cycle order: the cost of one fitted campaign
// against another differs by more than the code changes this is meant to
// show.  A reference pass during set-up records every entry's answer; every
// timed run must reproduce it bit for bit, and the traced phase recomposes
// run_hslb from its public steps and must match it too.
#include <algorithm>
#include <cmath>
#include <random>

#include "check.hpp"
#include "hslb/cesm/configs.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/hslb/resilience.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hslb::cesm::ComponentKind;
using hslb::cesm::LayoutKind;

struct Answer {
  std::map<ComponentKind, int> nodes;
  double predicted_total = 0.0;
  double actual_total = 0.0;
};

bool same(const Answer& a, const Answer& b) {
  return a.nodes == b.nodes && a.predicted_total == b.predicted_total &&
         a.actual_total == b.actual_total;
}

Answer answer_of(const hslb::core::HslbResult& r) {
  return Answer{r.allocation.nodes, r.allocation.predicted_total,
                r.actual_total};
}

/// run_hslb recomposed from the public steps it is made of, with a span
/// around each call.  Mirrors the fault-free, non-resilient path.
Answer decomposed_run(const hslb::core::PipelineConfig& config) {
  namespace core = hslb::core;
  hslb::cesm::CampaignResult campaign;
  {
    const Span span("cesm.gather");
    campaign = hslb::cesm::gather_benchmarks(
        config.case_config, config.layout, config.gather_totals, config.seed);
  }
  core::LayoutModelSpec spec;
  spec.layout = config.layout;
  spec.total_nodes = config.total_nodes;
  spec.objective = config.objective;
  spec.use_sos = config.use_sos;
  spec.min_nodes = config.case_config.min_nodes;
  for (const ComponentKind kind : hslb::cesm::kModeledComponents) {
    const hslb::cesm::Series series =
        hslb::cesm::series_for(campaign.samples, kind);
    const Span span("perf.fit");
    spec.perf[kind] =
        hslb::perf::fit(series.nodes, series.seconds, config.fit_options)
            .model;
  }
  spec.atm_allowed = config.case_config.atm_allowed;
  spec.ocn_allowed = config.case_config.ocn_allowed;
  // The pipeline's automatic Tsync rule (config.tsync < 0).
  spec.tsync = std::max(
      1.0, 0.25 * spec.perf.at(ComponentKind::kIce)(
                      std::max(1.0, config.total_nodes / 2.0)));

  core::LayoutModelVars vars;
  hslb::minlp::Model model;
  {
    const Span span("hslb.build");
    model = core::build_layout_model(spec, &vars);
  }
  hslb::minlp::MinlpResult result;
  {
    const Span span("minlp.solve");
    result = hslb::minlp::solve(model, config.solver);
  }
  core::Allocation allocation;
  {
    const Span span("hslb.extract");
    allocation = core::extract_allocation(spec, vars, result);
  }
  hslb::cesm::RunResult run;
  {
    const Span span("cesm.execute");
    run = hslb::cesm::run_case(config.case_config,
                               allocation.as_layout(config.layout),
                               config.seed + 1);
  }
  return Answer{allocation.nodes, allocation.predicted_total,
                run.model_seconds};
}

/// The spec run_hslb solved, rebuilt from its result (fits + case data).
hslb::core::LayoutModelSpec spec_of(const hslb::core::PipelineConfig& config,
                                    const hslb::core::HslbResult& r) {
  hslb::core::LayoutModelSpec spec;
  spec.layout = config.layout;
  spec.total_nodes = config.total_nodes;
  spec.min_nodes = config.case_config.min_nodes;
  spec.atm_allowed = config.case_config.atm_allowed;
  spec.ocn_allowed = config.case_config.ocn_allowed;
  spec.tsync = r.tsync_used;
  for (const auto& [kind, fit] : r.fits) {
    spec.perf[kind] = fit.model;
  }
  return spec;
}

}  // namespace

Outcome run_pipeline(const RunOptions& options) {
  Outcome out;
  std::vector<hslb::core::PipelineConfig> cycle;
  std::vector<hslb::core::HslbResult> reference;

  const auto setup = [&] {
    cycle.clear();
    reference.clear();
    const hslb::cesm::CaseConfig one = hslb::cesm::one_degree_case();
    const hslb::cesm::CaseConfig eighth = hslb::cesm::eighth_degree_case();
    for (const LayoutKind layout :
         {LayoutKind::kHybrid, LayoutKind::kSequentialGroup,
          LayoutKind::kFullySequential}) {
      for (const int total : {128, 512, 1024, 2048}) {
        hslb::core::PipelineConfig config;
        config.case_config = one;
        config.layout = layout;
        config.total_nodes = total;
        config.gather_totals = hslb::core::default_gather_totals(total);
        cycle.push_back(config);
      }
    }
    for (const auto& [layout, total] :
         {std::pair{LayoutKind::kHybrid, 8192},
          std::pair{LayoutKind::kHybrid, 16384},
          std::pair{LayoutKind::kSequentialGroup, 8192}}) {
      hslb::core::PipelineConfig config;
      config.case_config = eighth;
      config.layout = layout;
      config.total_nodes = total;
      config.gather_totals = {4096, 8192, 16384, 24576, 32768};
      cycle.push_back(config);
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      cycle[i].seed = 2014 + i;
    }

    std::mt19937_64 rng(mix_seed(options.seed, 0x9199));
    std::shuffle(cycle.begin(), cycle.end(), rng);
    for (const hslb::core::PipelineConfig& config : cycle) {
      reference.push_back(hslb::core::run_hslb(config));
    }
  };
  out.set("setup_s", timed_setup(setup), "s");

  // Independent checks of the reference answers; a timed run counts as
  // failed when its slot's reference failed or when it differs from it.
  std::vector<bool> slot_ok(cycle.size(), true);
  std::vector<double> pred_err;
  std::vector<double> ratio;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const hslb::core::PipelineConfig& config = cycle[i];
    const hslb::core::HslbResult& r = reference[i];
    const hslb::core::LayoutModelSpec spec = spec_of(config, r);
    LayoutAnswer answer;
    answer.layout = config.layout;
    answer.total_nodes = config.total_nodes;
    answer.perf = spec.perf;
    answer.atm_allowed = spec.atm_allowed;
    answer.ocn_allowed = spec.ocn_allowed;
    answer.min_nodes = spec.min_nodes;
    answer.tsync = spec.tsync;
    answer.nodes = r.allocation.nodes;
    answer.objective = r.solver_result.objective;
    std::string why = check_layout_answer(answer);
    if (why.empty() && std::fabs(r.predicted_total - r.solver_result.objective) >
                           kObjectiveRelTol * r.predicted_total) {
      why = "predicted total differs from the solver objective";
    }
    if (!why.empty() || r.degraded) {
      slot_ok[i] = false;
      out.note("pipeline slot " + std::to_string(i) + ": " +
               (why.empty() ? "degraded answer" : why));
    }
    pred_err.push_back(100.0 * std::fabs(r.actual_total - r.predicted_total) /
                       r.actual_total);
    ratio.push_back(r.solver_result.objective /
                    hslb::core::heuristic_allocation(spec).predicted_total);
  }
  out.set("pred_err_pct", median(pred_err), "%");
  out.set("objective_ratio", mean(ratio), "ratio");

  CycleWorkload workload;
  workload.cycle_len = cycle.size();
  for (const hslb::core::PipelineConfig& config : cycle) {
    workload.slot_names.push_back(
        config.case_config.name + " " + hslb::cesm::to_string(config.layout) +
        " " + std::to_string(config.total_nodes));
  }
  workload.spans = {"cesm.gather", "perf.fit", "hslb.build", "hslb.extract",
                    "cesm.execute"};
  workload.op = [&](std::size_t i, const PhaseSinks& sinks) {
    Answer got;
    if (sinks.phase() == Phase::kTraced) {
      const hslb::obs::Install install(sinks.options());
      got = decomposed_run(cycle[i]);
    } else {
      hslb::core::PipelineConfig config = cycle[i];
      config.obs = sinks.options();
      got = answer_of(hslb::core::run_hslb(config));
    }
    ++out.attempted;
    if (!slot_ok[i]) {
      ++out.failed;
    } else if (!same(got, answer_of(reference[i]))) {
      out.fail(sinks.phase() == Phase::kTraced
                   ? "recomposed pipeline differs from run_hslb"
                   : "run_hslb answer differs from the reference pass");
    }
  };
  workload.traced_layers = [](Outcome* o, const PhaseTimes& t,
                              const PhaseSinks& sinks) {
    const auto snap = sinks.registry().snapshot();
    const double ops = static_cast<double>(t.op_ms.size());
    // One benchmark run per gather campaign entry, plus the execute run.
    o->set("cesm.runs",
           (snap.counter_value("cesm.gather.benchmarks", kNoData) + ops) / ops,
           "count");
    o->set("perf.fits", snap.counter_value("perf.fit.calls", kNoData) / ops,
           "count");
  };
  measure_cycles(options, workload, &out);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
