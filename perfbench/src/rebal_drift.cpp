// rebal_drift: rebal::run_horizon (warm arm) over seeded drift replays of
// the bench_rebal_horizon scenario -- eight components on 192 nodes, two
// scripted regime shifts, lognormal observation noise.
//
// One cycle replays 5 fixed drift seeds once, in an order the workload
// seed sets: per-horizon cost depends on how many rebalances a seed's noise
// triggers, so seeded replays would move the timings more than code changes
// do.  Five puts the p90 of all horizons in the middle of the costliest
// seed's times.  A horizon takes 100-300 ms, so a run lasts at least
// kMinHorizons horizons, 30 repeats per seed (20-35 s): over ten runs on a
// shared 4-core host, the quartile spread of op_ms_p50 was 0.32 with 10
// repeats per seed and 0.19 with 20.
// Cycles repeat, so each seed is replayed at least twice and every replay
// must reproduce the first one's fingerprint.  Re-solves re-enter B&B from
// the cross-solve WarmStart (root basis plus factor snapshot), and the
// detector/refit loop runs every step.
#include <algorithm>
#include <cmath>
#include <random>

#include "hslb/rebal/drift.hpp"
#include "hslb/rebal/loop.hpp"
#include "hslb/scen/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr long kHorizon = 1200;
constexpr std::size_t kReplaySeeds = 5;
constexpr std::size_t kMinHorizons = 150;

/// bench/rebal_horizon.cpp's scenario at the given horizon.
std::string scenario_text(long horizon) {
  std::string text = R"(scenario rebal_drift
machine nodes=192 cores_per_node=8 mem_gb_per_node=64
component atm curve=pow a=16000 b=0.09 c=1.2 d=10
component ocn curve=pow a=10000 b=0.09 c=1.1 d=8
component ice curve=pow a=3200 b=0.05 c=1 d=4
component lnd curve=pow a=1200 b=0.03 c=1 d=2
component rof curve=pow a=700 b=0.03 c=1 d=2
component glc curve=pow a=900 b=0.04 c=1 d=3
component wav curve=pow a=1500 b=0.05 c=1.05 d=3
component cpl curve=pow a=500 b=0.03 c=1 d=1
comm atm ocn 0.02
comm ocn wav 0.01
schedule ocn | wav | (ice | lnd | rof | glc | cpl) -> atm
)";
  text += "drift atm rate=0.00008 noise=0.02 shifts=" +
          std::to_string(horizon * 35 / 100) + ":1.6\n";
  text += "drift ocn rate=-0.0001 noise=0.02 shifts=" +
          std::to_string(horizon * 70 / 100) + ":0.55\n";
  text += "drift ice noise=0.015\n";
  text += "drift wav noise=0.015\n";
  return text;
}

hslb::rebal::LoopOptions loop_options(std::uint64_t seed, bool rebalance) {
  hslb::rebal::LoopOptions options;
  options.seed = seed;
  options.horizon = kHorizon;
  options.rebalance = rebalance;
  options.warm = true;
  // The bench's detector thresholds for an eight-component machine.
  options.detector.fire_threshold = 0.05;
  options.detector.clear_threshold = 0.02;
  return options;
}

}  // namespace

Outcome run_rebal_drift(const RunOptions& options) {
  Outcome out;
  hslb::scen::Scenario scenario;
  std::vector<std::uint64_t> seeds;
  std::vector<double> static_core_hours;
  double parse_ms = 0.0;

  // Set-up: parse the scenario and replay the static arm (solve once, never
  // rebalance) for every seed -- the baseline the loop's answer is judged
  // against.
  const auto setup = [&] {
    const Clock::time_point parse_start = Clock::now();
    scenario = hslb::scen::parse_scenario(scenario_text(kHorizon));
    parse_ms = ms_between(parse_start, Clock::now());
    seeds.clear();
    for (std::size_t k = 0; k < kReplaySeeds; ++k) {
      seeds.push_back(2026 + k);
    }
    std::mt19937_64 rng(mix_seed(options.seed, 0x3eba1));
    std::shuffle(seeds.begin(), seeds.end(), rng);
    static_core_hours.clear();
    for (const std::uint64_t seed : seeds) {
      static_core_hours.push_back(
          hslb::rebal::run_horizon(scenario, loop_options(seed, false))
              .core_hours);
    }
  };
  out.set("setup_s", timed_setup(setup), "s");

  std::vector<hslb::rebal::HorizonResult> first(seeds.size());
  std::vector<bool> have_first(seeds.size(), false);
  double resolve_ms = 0.0;
  double resolve_nodes = 0.0;
  double resolve_pivots = 0.0;
  double rebalances = 0.0;
  double core_hours = 0.0;

  CycleWorkload workload;
  workload.cycle_len = seeds.size();
  workload.min_ops = kMinHorizons;
  workload.work_per_op = static_cast<double>(kHorizon);
  for (const std::uint64_t seed : seeds) {
    workload.slot_names.push_back("drift seed " + std::to_string(seed));
  }
  workload.op = [&](std::size_t i, const PhaseSinks& sinks) {
    hslb::rebal::HorizonResult r;
    {
      const hslb::obs::Install install(sinks.options());
      const Span span("rebal.horizon");
      r = hslb::rebal::run_horizon(scenario, loop_options(seeds[i], true));
    }
    ++out.attempted;
    if (!have_first[i]) {
      have_first[i] = true;
      first[i] = r;
    } else if (r.replay_fingerprint != first[i].replay_fingerprint ||
               r.core_hours != first[i].core_hours) {
      out.fail("replay of drift seed " + std::to_string(seeds[i]) +
               " changed its fingerprint");
    }
    if (sinks.phase() == Phase::kTraced) {
      resolve_ms += r.resolve_wall_seconds * 1e3;
      resolve_nodes += static_cast<double>(r.resolve_nodes);
      resolve_pivots += static_cast<double>(r.resolve_simplex_iterations);
      rebalances += static_cast<double>(r.rebalances);
      core_hours += r.core_hours;
    }
  };
  workload.traced_solve_ms = [&] { return resolve_ms; };
  workload.traced_layers = [&](Outcome* o, const PhaseTimes& t,
                               const PhaseSinks&) {
    const double ops = static_cast<double>(t.op_ms.size());
    double wall_ms = 0.0;
    for (const double ms : t.op_ms) {
      wall_ms += ms;
    }
    o->set("rebal.resolve_ms", resolve_ms / ops, "ms");
    o->set("rebal.rebalances", rebalances / ops, "count");
    o->set("rebal.resolve_nodes", resolve_nodes / ops, "count");
    o->set("rebal.resolve_pivots", resolve_pivots / ops, "count");
    o->set("rebal.loop_us_per_step",
           (wall_ms - resolve_ms) * 1e3 / (ops * static_cast<double>(kHorizon)),
           "us");
    o->set("rebal.core_hours", core_hours / ops, "core-h");
  };
  measure_cycles(options, workload, &out);

  // The second replay of every seed: cycles repeat, but a run that fits
  // only one cycle replays here.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (out.attempted >= static_cast<long>(2 * seeds.size())) {
      break;
    }
    const hslb::rebal::HorizonResult again =
        hslb::rebal::run_horizon(scenario, loop_options(seeds[i], true));
    ++out.attempted;
    if (again.replay_fingerprint != first[i].replay_fingerprint) {
      out.fail("replay of drift seed " + std::to_string(seeds[i]) +
               " changed its fingerprint");
    }
  }

  // Answer quality: core-hours against the static arm, and the re-fitted
  // model's predicted step time at each rebalance against the simulator's
  // ground truth at that step.
  std::vector<double> ratio;
  std::vector<double> pred_err;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const hslb::rebal::HorizonResult& r = first[i];
    ratio.push_back(r.core_hours / static_core_hours[i]);
    const hslb::rebal::DriftSimulator truth(scenario, seeds[i]);
    for (const hslb::rebal::RebalanceEvent& event : r.events) {
      const double actual = hslb::scen::evaluate_objective(
          truth.scenario_at(event.step), event.allocation);
      pred_err.push_back(100.0 * std::fabs(actual - event.objective) / actual);
    }
  }
  out.set("objective_ratio", mean(ratio), "ratio");
  out.set("pred_err_pct", median(pred_err), "%");
  out.set("scen.parse_ms", parse_ms, "ms");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
