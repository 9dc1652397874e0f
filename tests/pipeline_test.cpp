// Integration tests: the full four-step HSLB pipeline against the simulated
// CESM cases, including the paper's headline comparisons.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/cesm/campaign.hpp"
#include "hslb/hslb/manual_tuner.hpp"
#include "hslb/hslb/objectives.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/perf/fit.hpp"

namespace hslb::core {
namespace {

using cesm::ComponentKind;
using cesm::LayoutKind;

class OneDegreePipeline : public ::testing::TestWithParam<int> {};

TEST_P(OneDegreePipeline, ProducesWellBalancedFeasibleLayouts) {
  const int total = GetParam();
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = total;
  config.gather_totals = {128, 256, 512, 1024, 2048};
  const HslbResult result = run_hslb(config);

  // Fits are good (the paper reports R^2 close to 1 for every component).
  for (const ComponentKind kind : cesm::kModeledComponents) {
    EXPECT_GT(result.fits.at(kind).r_squared, 0.95) << cesm::to_string(kind);
  }

  // The allocation satisfies the layout-1 constraints.
  const cesm::Layout layout = result.allocation.as_layout(config.layout);
  EXPECT_FALSE(layout.invalid_reason(total));

  // Predicted and actual totals agree (the paper's key validation).
  EXPECT_NEAR(result.actual_total, result.predicted_total,
              0.10 * result.predicted_total)
      << "prediction must track execution";

  // Ocean count is in the allowed set.
  const int ocn = result.components.at(ComponentKind::kOcn).nodes;
  bool member = false;
  for (const int v : config.case_config.ocn_allowed) {
    member = member || v == ocn;
  }
  EXPECT_TRUE(member) << ocn;
}

INSTANTIATE_TEST_SUITE_P(PaperNodeCounts, OneDegreePipeline,
                         ::testing::Values(128, 256, 512, 1024, 2048));

TEST(Pipeline, HslbAtLeastMatchesManualAtOneDegree) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 128;
  config.gather_totals = {128, 256, 512, 1024, 2048};
  const HslbResult hslb = run_hslb(config);

  ManualTunerConfig manual_config;
  manual_config.total_nodes = 128;
  const ManualResult manual =
      run_manual(config.case_config, manual_config, hslb.samples);

  // "Manual, HSLB predicted, and HSLB actual total times are very close".
  EXPECT_NEAR(hslb.actual_total, manual.actual_total,
              0.15 * manual.actual_total);
  // HSLB must not lose badly to the expert.
  EXPECT_LE(hslb.actual_total, manual.actual_total * 1.08);
}

TEST(Pipeline, EighthDegreeConstrainedOceanPicksLargeCount) {
  // The paper's 32768-node result: HSLB chooses the 19460-node ocean.
  PipelineConfig config;
  config.case_config = cesm::eighth_degree_case();
  config.total_nodes = 32768;
  config.gather_totals = {4096, 8192, 16384, 24576, 32768};
  const HslbResult result = run_hslb(config);
  EXPECT_EQ(result.components.at(ComponentKind::kOcn).nodes, 19460);
  // Within a factor of the paper's 1593 s prediction shape.
  EXPECT_GT(result.predicted_total, 1200.0);
  EXPECT_LT(result.predicted_total, 2000.0);
}

TEST(Pipeline, UnconstrainedOceanImprovesPredictionButPaysPenalty) {
  PipelineConfig config;
  config.case_config = cesm::eighth_degree_case();
  config.total_nodes = 32768;
  config.gather_totals = {4096, 8192, 16384, 24576, 32768};
  const HslbResult constrained = run_hslb(config);

  PipelineConfig unconstrained_config = config;
  unconstrained_config.constrain_ocean = false;
  const HslbResult unconstrained =
      run_hslb_from_samples(unconstrained_config, constrained.samples);

  // Prediction improves substantially without the hard-coded set (the paper
  // reports ~40% predicted, ~25% actual).
  EXPECT_LT(unconstrained.predicted_total, 0.85 * constrained.predicted_total);

  // Executing the unconstrained allocation pays the off-preferred penalty:
  // actual lands above prediction but still beats the constrained actual.
  const cesm::Layout layout =
      unconstrained.allocation.as_layout(config.layout);
  const cesm::RunResult run =
      cesm::run_case(config.case_config, layout, 555);
  EXPECT_GT(run.model_seconds, unconstrained.predicted_total);
  EXPECT_LT(run.model_seconds, constrained.actual_total);
}

TEST(Pipeline, SosAndBinaryBranchingAgree) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 128;
  config.gather_totals = {128, 512, 2048};
  const HslbResult with_sos = run_hslb(config);

  PipelineConfig no_sos = config;
  no_sos.use_sos = false;
  no_sos.solver.use_sos_branching = false;
  const HslbResult without_sos =
      run_hslb_from_samples(no_sos, with_sos.samples);
  EXPECT_NEAR(with_sos.predicted_total, without_sos.predicted_total,
              1e-4 * with_sos.predicted_total);
  // The paper's claim: SOS branching explores far fewer nodes.
  EXPECT_LE(with_sos.solver_result.stats.nodes_explored,
            without_sos.solver_result.stats.nodes_explored);
}

TEST(Pipeline, FromSamplesSkipsGatherAndExecute) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 256;
  config.gather_totals = {128, 512, 2048};
  const HslbResult full = run_hslb(config);
  const HslbResult replay = run_hslb_from_samples(config, full.samples);
  EXPECT_NEAR(replay.predicted_total, full.predicted_total,
              1e-6 * full.predicted_total);
  EXPECT_EQ(replay.actual_total, 0.0);  // no execute step
}

TEST(Pipeline, SequentialGroupFitsSolveToOptimalityAt1208) {
  // Regression: on these fits a node LP once pivoted into a singular basis
  // and its cold retry threw "singular simplex basis".
  const cesm::CaseConfig case_config = cesm::one_degree_case();
  const std::vector<int> totals = {128, 256, 512, 1024, 2048};
  const cesm::CampaignResult campaign = cesm::gather_benchmarks(
      case_config, LayoutKind::kSequentialGroup, totals, 2115);
  std::map<ComponentKind, perf::PerfModel> fits;
  for (const ComponentKind kind : cesm::kModeledComponents) {
    const cesm::Series series = cesm::series_for(campaign.samples, kind);
    fits[kind] = perf::fit(series.nodes, series.seconds).model;
  }
  PipelineConfig config;
  config.case_config = case_config;
  config.layout = LayoutKind::kSequentialGroup;
  config.total_nodes = 1208;
  const HslbResult result = run_hslb_from_fits(config, fits);
  ASSERT_EQ(result.solver_result.status, minlp::MinlpStatus::kOptimal);
  constexpr double kOptimum = 93.983710821;
  EXPECT_NEAR(result.solver_result.objective, kOptimum,
              config.solver.rel_gap * kOptimum);
}

TEST(Pipeline, ObservabilityCapturesAllFourPhases) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 128;
  config.gather_totals = {128, 512, 2048};

  obs::TraceSession trace;
  obs::Registry metrics;
  config.obs.trace = &trace;
  config.obs.metrics = &metrics;
  const HslbResult result = run_hslb(config);
  ASSERT_GT(result.predicted_total, 0.0);

  // One top-level span per pipeline phase...
  std::map<std::string, int> top_level;
  std::map<std::string, int> all;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.depth == 0) {
      ++top_level[e.name];
    }
    ++all[e.name];
  }
  EXPECT_EQ(top_level["hslb.gather"], 1);
  EXPECT_EQ(top_level["hslb.fit"], 1);
  EXPECT_EQ(top_level["hslb.solve"], 1);
  EXPECT_EQ(top_level["hslb.execute"], 1);
  // ...with nested per-campaign-size, per-component, and solver spans.
  EXPECT_EQ(all["cesm.gather.benchmark"], 3);
  EXPECT_EQ(all["hslb.fit.component"], 4);
  EXPECT_GE(all["minlp.solve"], 1);
  EXPECT_GE(all["nlp.lm"], 4);
  EXPECT_GE(all["cesm.run_case"], 4);  // 3 gather runs + 1 execute run

  // The metrics registry saw the solver and the fitter do real work.
  EXPECT_GT(metrics.counter("minlp.nodes_explored").value(), 0.0);
  EXPECT_GT(metrics.counter("minlp.lp_solves").value(), 0.0);
  EXPECT_GT(metrics.counter("nlp.lm.iterations").value(), 0.0);
  EXPECT_GT(metrics.counter("lp.simplex.pivots").value(), 0.0);
  EXPECT_GT(metrics.counter("cesm.days_simulated").value(), 0.0);
  EXPECT_GT(metrics.histogram("minlp.lp_solve_ms").count(), 0);

  // After the run the context is restored: nothing is installed.
  EXPECT_EQ(obs::current_trace(), nullptr);
  EXPECT_EQ(obs::current_metrics(), nullptr);

  // The exported trace is non-trivial and mentions the phases.
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("hslb.gather"), std::string::npos);
  EXPECT_NE(json.find("hslb.execute"), std::string::npos);
}

TEST(Pipeline, ObservabilityOffRecordsNothing) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 128;
  config.gather_totals = {128, 512, 2048};
  const HslbResult result = run_hslb(config);  // no obs members set
  ASSERT_GT(result.predicted_total, 0.0);
  EXPECT_EQ(obs::current_trace(), nullptr);
  EXPECT_EQ(obs::current_metrics(), nullptr);
}

TEST(Pipeline, DeterministicInSeed) {
  PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = 128;
  config.gather_totals = {128, 512, 2048};
  const HslbResult a = run_hslb(config);
  const HslbResult b = run_hslb(config);
  EXPECT_DOUBLE_EQ(a.predicted_total, b.predicted_total);
  EXPECT_DOUBLE_EQ(a.actual_total, b.actual_total);
  for (const ComponentKind kind : cesm::kModeledComponents) {
    EXPECT_EQ(a.components.at(kind).nodes, b.components.at(kind).nodes);
  }
}

TEST(Pipeline, DefaultGatherTotalsAreLogSpaced) {
  const auto totals = default_gather_totals(2048);
  ASSERT_GE(totals.size(), 4u);
  EXPECT_EQ(totals.back(), 2048);
  EXPECT_GE(totals.front(), 32);
}

TEST(Objectives, BalanceMetricsComputed) {
  std::map<ComponentKind, int> nodes{{ComponentKind::kIce, 80},
                                     {ComponentKind::kLnd, 24},
                                     {ComponentKind::kAtm, 104},
                                     {ComponentKind::kOcn, 24}};
  std::map<ComponentKind, double> seconds{{ComponentKind::kIce, 100.0},
                                          {ComponentKind::kLnd, 90.0},
                                          {ComponentKind::kAtm, 300.0},
                                          {ComponentKind::kOcn, 380.0}};
  const BalanceMetrics metrics =
      evaluate_balance(LayoutKind::kHybrid, nodes, seconds);
  EXPECT_DOUBLE_EQ(metrics.combined_total, 400.0);
  EXPECT_DOUBLE_EQ(metrics.max_component, 380.0);
  EXPECT_DOUBLE_EQ(metrics.min_component, 90.0);
  EXPECT_DOUBLE_EQ(metrics.icelnd_gap, 10.0);
  EXPECT_DOUBLE_EQ(metrics.node_seconds, 128 * 400.0);
}

TEST(Objectives, ThroughputMetric) {
  // 5 simulated days in 400 s of wall clock.
  const double sypd = simulated_years_per_day(5, 400.0);
  EXPECT_NEAR(sypd, (5.0 / 365.0) / (400.0 / 86400.0), 1e-9);
}

}  // namespace
}  // namespace hslb::core
