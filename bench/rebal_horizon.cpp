// Online rebalancing horizon bench: the drift-tracking control loop vs the
// paper's static offline allocation, and warm vs cold in-loop re-solves.
//
//   $ ./bench_rebal_horizon [--json-out=BENCH_rebal.json] [--seed=<n>]
//                           [--horizon=<n>] [--smoke]
//
// One scenario with scripted drift (slow exponential trends, two step regime
// shifts, lognormal observation noise) is replayed over a long horizon by
// three arms:
//
//   static  solve once at step 0, never rebalance (the paper's offline HSLB
//           measured under drift),
//   warm    the full control loop; re-solves re-enter branch-and-bound from
//           the previous incumbent, root basis, and factor snapshot,
//   cold    the same loop with every re-solve starting from scratch.
//
// Every arm runs twice and must produce a byte-identical replay fingerprint
// (the in-binary determinism gate).  The loop arms must beat the static arm
// on cumulative core-hours, warm must not do more deterministic solver work
// (simplex pivots) than cold -- and in full mode must also win on re-solve
// wall time -- and the detector's fires are scored against the scripted
// regime-shift ground truth with precision and recall gated at 0.5.  The
// artifact (PR 5 schema) carries every deterministic counter plus kTiming
// cells for the wall-clock numbers.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hslb/common/table.hpp"
#include "hslb/rebal/loop.hpp"
#include "hslb/scen/parse.hpp"

namespace {

using namespace hslb;

/// The bench scenario: eight pow-family components on a 192-node machine
/// with scripted drift -- large enough that each re-solve does real
/// branch-and-bound work, so the warm-vs-cold wall-time comparison measures
/// the solver and not fixed per-solve overhead.  atm slowly grows and jumps
/// 1.6x at ~35% of the horizon; ocn slowly shrinks and collapses to 0.55x
/// at ~70%; ice and wav are noise-only; the rest are clean.  The shift
/// steps scale with the horizon so smoke runs keep both regime shifts.
std::string scenario_text(long horizon) {
  const long shift1 = horizon * 35 / 100;
  const long shift2 = horizon * 70 / 100;
  std::string text = R"(# drift-tracking control loop bench scenario
scenario rebal_drift
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
          std::to_string(shift1) + ":1.6\n";
  text += "drift ocn rate=-0.0001 noise=0.02 shifts=" +
          std::to_string(shift2) + ":0.55\n";
  text += "drift ice noise=0.015\n";
  text += "drift wav noise=0.015\n";
  return text;
}

rebal::LoopOptions arm_options(std::uint64_t seed, long horizon,
                               bool rebalance, bool warm) {
  rebal::LoopOptions options;
  options.seed = seed;
  options.horizon = horizon;
  options.rebalance = rebalance;
  options.warm = warm;
  // Eight components dilute the FLI of a single-component change: the
  // 0.55x downward shift on ocn lands near 0.06, so the default 0.15
  // trigger would sleep through it.  0.05/0.02 keeps a comfortable margin
  // over the 0.02 noise floor (windowed noise sigma ~0.005) while staying
  // above the slow drift's accumulation between rebalances (~0.035).
  options.detector.fire_threshold = 0.05;
  options.detector.clear_threshold = 0.02;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  std::uint64_t seed = 2026;
  long horizon = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(std::strlen("--seed=")));
    } else if (arg.rfind("--horizon=", 0) == 0) {
      horizon = std::stol(arg.substr(std::strlen("--horizon=")));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_rebal_horizon [--json-out=<file.json>]"
                   " [--seed=<n>] [--horizon=<n>] [--smoke]\n";
      return 2;
    }
  }
  if (horizon <= 0) {
    horizon = smoke ? 240 : 1200;
  }

  const std::string title =
      "Online rebalancing: drift-tracking loop vs static allocation";
  const std::string reference =
      "closed control loop (imbalance detector + incremental re-fit + warm"
      " re-solve) vs the offline HSLB allocation under scripted drift";
  bench::banner(title, reference);
  if (smoke) {
    std::cout << "[smoke mode: short horizon, timings are not meaningful]\n";
  }

  const scen::Scenario scenario = scen::parse_scenario(scenario_text(horizon));
  const rebal::DriftSimulator ground_truth(scenario, seed);
  const std::vector<long> shift_steps = ground_truth.shift_steps();

  struct ArmSpec {
    const char* name;
    bool rebalance;
    bool warm;
  };
  const ArmSpec arms[] = {
      {"static", false, false}, {"warm", true, true}, {"cold", true, false}};

  // Every arm replays its horizon several times: all replays must agree on
  // the fingerprint (the byte-identity gate), and the resolve wall time
  // keeps the minimum across replays — wall clock is the only run-to-run
  // variation, and the minimum is the noise-robust estimate the full-mode
  // warm-vs-cold timing gate compares.  Replays are interleaved across the
  // arms (static, warm, cold, static, warm, cold, ...) rather than run
  // back-to-back per arm, so no arm systematically enjoys a warmer process
  // (allocator, caches, CPU boost) than another.  Smoke keeps two rounds
  // (identity only); full mode adds more so a scheduler hiccup cannot flip
  // the timing comparison.
  const int replays = smoke ? 2 : 6;
  bool identity_ok = true;
  std::vector<rebal::HorizonResult> results;
  for (int rep = 0; rep < replays; ++rep) {
    for (std::size_t i = 0; i < 3; ++i) {
      const ArmSpec& arm = arms[i];
      const rebal::LoopOptions options =
          arm_options(seed, horizon, arm.rebalance, arm.warm);
      if (rep == 0) {
        std::cerr << "  arm: " << arm.name << '\n';
        results.push_back(rebal::run_horizon(scenario, options));
        continue;
      }
      const rebal::HorizonResult again = rebal::run_horizon(scenario, options);
      if (results[i].replay_fingerprint != again.replay_fingerprint) {
        std::cerr << "REPLAY BREAK: arm " << arm.name << " fingerprints "
                  << results[i].replay_fingerprint << " vs "
                  << again.replay_fingerprint << '\n';
        identity_ok = false;
      }
      results[i].resolve_wall_seconds = std::min(
          results[i].resolve_wall_seconds, again.resolve_wall_seconds);
    }
  }
  const rebal::HorizonResult& arm_static = results[0];
  const rebal::HorizonResult& arm_warm = results[1];
  const rebal::HorizonResult& arm_cold = results[2];

  // Detector scoring against the scripted shifts: a fire within the window
  // (fill + sustain + slack) after a shift is a true positive.
  const rebal::LoopOptions scoring = arm_options(seed, horizon, true, true);
  const long match_window =
      scoring.detector.window + scoring.detector.sustain + 30;
  const rebal::DetectorScore score =
      rebal::score_detector(arm_warm.fire_steps, shift_steps, match_window);

  report::ResultSet artifact =
      bench::make_result_set("rebal_horizon", title, reference);
  common::Table table({"arm", "core-hours", "vs static", "fires", "rebal",
                       "fallbacks", "nodes", "pivots", "resolve ms"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const rebal::HorizonResult& r = results[i];
    const std::string name = arms[i].name;
    const double savings_pct =
        100.0 * (arm_static.core_hours - r.core_hours) /
        arm_static.core_hours;
    table.add_row();
    table.cell(name);
    table.cell(r.core_hours, 1);
    table.cell(common::format_fixed(savings_pct, 2) + "%");
    table.cell(static_cast<long long>(r.detector_fires));
    table.cell(static_cast<long long>(r.rebalances));
    table.cell(static_cast<long long>(r.heuristic_fallbacks));
    table.cell(static_cast<long long>(r.resolve_nodes));
    table.cell(static_cast<long long>(r.resolve_simplex_iterations));
    table.cell(r.resolve_wall_seconds * 1e3, 2);

    artifact.add(name, 0.0, "core_hours", r.core_hours, "core-h");
    artifact.add(name, 0.0, "step_seconds_sum", r.step_seconds_sum, "s");
    artifact.add(name, 0.0, "overhead_core_hours", r.overhead_core_hours,
                 "core-h");
    artifact.add(name, 0.0, "savings_vs_static_pct", savings_pct, "%");
    artifact.add(name, 0.0, "detector_fires",
                 static_cast<double>(r.detector_fires), "count");
    artifact.add(name, 0.0, "rebalances", static_cast<double>(r.rebalances),
                 "count");
    artifact.add(name, 0.0, "heuristic_fallbacks",
                 static_cast<double>(r.heuristic_fallbacks), "count");
    artifact.add(name, 0.0, "regime_shifts_flagged",
                 static_cast<double>(r.regime_shifts_flagged), "count");
    artifact.add(name, 0.0, "resolve_nodes",
                 static_cast<double>(r.resolve_nodes), "count");
    artifact.add(name, 0.0, "resolve_lp_solves",
                 static_cast<double>(r.resolve_lp_solves), "count");
    artifact.add(name, 0.0, "resolve_simplex_iterations",
                 static_cast<double>(r.resolve_simplex_iterations), "count");
    artifact.add(name, 0.0, "resolve_warm_primes",
                 static_cast<double>(r.resolve_warm_primes), "count");
    artifact.add(name, 0.0, "resolve_ms", r.resolve_wall_seconds * 1e3, "ms",
                 report::Stability::kTiming);
  }
  std::cout << table;
  std::cout << "replay fingerprints: static " << arm_static.replay_fingerprint
            << "  warm " << arm_warm.replay_fingerprint << "  cold "
            << arm_cold.replay_fingerprint << '\n';
  std::cout << "detector: " << score.true_positives << " TP, "
            << score.false_positives << " FP, " << score.false_negatives
            << " FN  (precision " << common::format_fixed(score.precision, 2)
            << ", recall " << common::format_fixed(score.recall, 2)
            << " over " << shift_steps.size() << " scripted shifts)\n";

  // --- Gates ----------------------------------------------------------------
  bool gate_ok = true;
  const auto require = [&gate_ok](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "GATE: " << what << '\n';
      gate_ok = false;
    }
  };
  require(arm_warm.core_hours < arm_static.core_hours,
          "warm loop must beat the static allocation on core-hours");
  require(arm_cold.core_hours < arm_static.core_hours,
          "cold loop must beat the static allocation on core-hours");
  require(arm_warm.rebalances >= 2,
          "warm loop must rebalance at least twice (two scripted shifts)");
  require(arm_warm.resolve_simplex_iterations <=
              arm_cold.resolve_simplex_iterations,
          "warm re-solves must not pivot more than cold (deterministic"
          " proxy)");
  require(score.precision >= 0.5, "detector precision must be >= 0.5");
  require(score.recall >= 0.5, "detector recall must be >= 0.5");
  const double warm_speedup =
      arm_cold.resolve_wall_seconds /
      std::max(1e-12, arm_warm.resolve_wall_seconds);
  if (!smoke) {
    require(arm_warm.resolve_wall_seconds < arm_cold.resolve_wall_seconds,
            "warm re-solves must beat cold on wall time (full mode)");
  }
  std::cout << "warm-vs-cold re-solve speedup: "
            << common::format_fixed(warm_speedup, 2) << "x ("
            << (smoke ? "not gated in smoke mode" : "gated > 1x") << ")\n";

  artifact.add_scalar("detector", "true_positives",
                      static_cast<double>(score.true_positives), "count");
  artifact.add_scalar("detector", "false_positives",
                      static_cast<double>(score.false_positives), "count");
  artifact.add_scalar("detector", "false_negatives",
                      static_cast<double>(score.false_negatives), "count");
  artifact.add_scalar("detector", "precision", score.precision, "");
  artifact.add_scalar("detector", "recall", score.recall, "");
  artifact.add_scalar("summary", "horizon", static_cast<double>(horizon),
                      "steps");
  artifact.add_scalar("summary", "scripted_shifts",
                      static_cast<double>(shift_steps.size()), "count");
  artifact.add_scalar("summary", "core_hours_saved_vs_static",
                      arm_static.core_hours - arm_warm.core_hours, "core-h");
  artifact.add_scalar("summary", "warm_vs_cold_resolve_speedup", warm_speedup,
                      "", report::Stability::kTiming);
  artifact.add_scalar("summary", "smoke", smoke ? 1.0 : 0.0, "count");
  return bench::finish(std::move(artifact), artifact_options,
                       identity_ok && gate_ok);
}
