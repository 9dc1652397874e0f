// The closed rebalancing control loop:
//
//   observe per-component step timings (DriftSimulator or a live source)
//     -> detect sustained imbalance (ImbalanceDetector, HemoCell trigger)
//     -> re-fit the drifted curves (ScaleTracker: RLS + CUSUM + Huber)
//     -> warm re-solve the allocation (minlp::solve re-entered from the
//        previous incumbent and root basis), with the scenario heuristic
//        grid search as the in-loop fallback rung
//     -> adopt the new allocation and keep observing.
//
// Accounting is split along the repo's determinism convention: everything a
// replay must reproduce byte-identically (step times, allocations, detector
// fires, solver node/pivot counts, the modeled rebalance overhead) is a pure
// function of (scenario, seed, options); wall-clock times are recorded
// separately and never feed back into control decisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/rebal/detector.hpp"
#include "hslb/rebal/drift.hpp"
#include "hslb/rebal/refit.hpp"
#include "hslb/scen/scenario.hpp"

namespace hslb::rebal {

struct LoopOptions {
  std::uint64_t seed = 2026;   ///< drift replay seed
  long horizon = 1000;         ///< execute steps to simulate
  DetectorOptions detector;
  ScaleTrackerOptions tracker;

  /// false: static arm -- solve once at step 0 and never rebalance (the
  /// paper's offline HSLB, measured under drift for comparison).
  bool rebalance = true;
  /// Warm re-solves (previous incumbent + root basis).
  /// false: every re-solve starts cold -- the A/B arm of the bench.
  bool warm = true;

  /// Node budget per in-loop re-solve; on exhaustion without an incumbent
  /// the loop drops to the heuristic grid-search rung.
  long solver_max_nodes = 50'000;
  int solver_threads = 1;

  /// Modeled cost of one rebalance, charged deterministically as this many
  /// steps of machine time at the pre-rebalance step duration (solver wall
  /// time is machine-dependent and is reported separately as timing data).
  double rebalance_overhead_steps = 2.0;
};

/// One accepted rebalance.
struct RebalanceEvent {
  long step = 0;
  bool heuristic = false;      ///< fallback rung produced the allocation
  bool warm_used = false;      ///< root LP reused the previous basis
  long warm_primes = 0;        ///< incumbent primings inside the solve
  long nodes_explored = 0;
  long lp_solves = 0;
  long simplex_iterations = 0;
  double objective = 0.0;      ///< model objective of the new allocation
  double wall_seconds = 0.0;   ///< measured re-solve time (timing only)
  std::vector<int> allocation;
};

struct HorizonResult {
  long steps = 0;
  /// Machine-time integral: sum over steps of true step seconds (under the
  /// ground-truth drifted curves) x nodes x cores_per_node / 3600, plus the
  /// modeled overhead of every rebalance.  The bench's headline metric.
  double core_hours = 0.0;
  double step_seconds_sum = 0.0;      ///< same integral in machine-seconds
  double overhead_core_hours = 0.0;   ///< modeled rebalance cost included above

  long detector_fires = 0;
  long rebalances = 0;          ///< fires that produced a new allocation
  long heuristic_fallbacks = 0;
  long regime_shifts_flagged = 0;  ///< CUSUM flags across all trackers

  /// Aggregate solver work across all in-loop re-solves (deterministic).
  long resolve_nodes = 0;
  long resolve_lp_solves = 0;
  long resolve_simplex_iterations = 0;
  long resolve_warm_primes = 0;
  double resolve_wall_seconds = 0.0;  ///< measured (timing only)

  std::vector<long> fire_steps;
  std::vector<RebalanceEvent> events;
  std::vector<int> initial_allocation;
  std::vector<int> final_allocation;

  /// FNV-1a over the deterministic trajectory (per-step true seconds and
  /// noisy observed seconds bit patterns, fire steps, adopted allocations):
  /// byte-identical replays per seed mean equal fingerprints.  16 hex
  /// digits.
  std::string replay_fingerprint;
};

/// Score detector fires against the scripted regime-shift ground truth: a
/// fire within `match_window` steps at-or-after a shift is a true positive;
/// shifts nobody fired on within the window are false negatives; remaining
/// fires are false positives.  Each shift matches at most one fire.
struct DetectorScore {
  long true_positives = 0;
  long false_positives = 0;
  long false_negatives = 0;
  double precision = 1.0;  ///< 1 when there were no fires
  double recall = 1.0;     ///< 1 when there were no shifts
};
DetectorScore score_detector(const std::vector<long>& fire_steps,
                             const std::vector<long>& shift_steps,
                             long match_window);

/// Run the control loop over `scenario`'s scripted drift horizon.  The
/// scenario must carry drift directives for the run to be interesting, but
/// any valid scenario is accepted (no drift -> the loop never fires).
HorizonResult run_horizon(const scen::Scenario& scenario,
                          const LoopOptions& options);

}  // namespace hslb::rebal
