// The four workloads and the phase structure the cycle-based ones share.
//
// A plain run (--trace 0) measures the end-to-end metrics with every sink
// off.  A traced run (--trace 1) measures three phases of equal length
// (interleaved in rounds for the cycle workloads):
//   plain      sinks off, no spans             -> the overhead baselines
//   traced     the benchmark's spans plus an obs::Registry for solver counts
//              -> every per-layer metric, bench.trace_overhead_pct
//   telemetry  the program's own obs sinks (TraceSession + Registry)
//              -> obs.telemetry_overhead_pct
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hslb/obs/obs.hpp"

namespace perfbench {

Outcome run_pipeline(const RunOptions& options);
Outcome run_bb_hard(const RunOptions& options);
Outcome run_svc_mixed(const RunOptions& options);
Outcome run_rebal_drift(const RunOptions& options);

enum class Phase { kPlain, kTraced, kTelemetry };

/// Fresh sinks for one phase; options() is what the phase installs.
class PhaseSinks {
 public:
  explicit PhaseSinks(Phase phase);
  PhaseSinks(const PhaseSinks&) = delete;
  PhaseSinks& operator=(const PhaseSinks&) = delete;

  Phase phase() const { return phase_; }
  const hslb::obs::Options& options() const { return options_; }
  const hslb::obs::Registry& registry() const { return *registry_; }

 private:
  Phase phase_;
  std::unique_ptr<hslb::obs::TraceSession> session_;
  std::unique_ptr<hslb::obs::Registry> registry_;
  hslb::obs::Options options_;
};

/// Operations a tail runs over at least, so that ten lie beyond a p90.
inline constexpr std::size_t kTailOps = 100;

/// A workload that repeats a fixed cycle of operations.
struct CycleWorkload {
  std::size_t cycle_len = 0;
  /// Operations a plain run performs at least, however short --seconds is
  /// (at least kTailOps).
  std::size_t min_ops = kTailOps;
  /// Units of work per operation for ops_per_s (1 for a run or a solve,
  /// the horizon length for rebal_drift).
  double work_per_op = 1.0;
  /// Slot names for the per-slot timing table printed on stderr.
  std::vector<std::string> slot_names;
  /// The benchmark spans the traced phase records around library calls;
  /// each one's self time is a layer metric.
  std::vector<std::string> spans;
  /// Perform operation i of the cycle under the phase's sinks.
  std::function<void(std::size_t, const PhaseSinks&)> op;
  /// Per-layer metrics beyond spans and solver counters, from the traced
  /// phase (optional).
  std::function<void(Outcome*, const PhaseTimes&, const PhaseSinks&)>
      traced_layers;
  /// Inclusive solve milliseconds of the traced phase when the solver runs
  /// out of the benchmark's sight (defaults to the minlp.solve span).
  std::function<double()> traced_solve_ms;
};

/// Measure a cycle workload: timing metrics for a plain run, or the three
/// phases and every per-layer metric for a traced run.
void measure_cycles(const RunOptions& options, const CycleWorkload& workload,
                    Outcome* out);

/// Quantile q of `samples`, or kNoData when fewer than ten samples lie
/// beyond it: a tail resting on fewer is not reported.
double tail_quantile(const std::vector<double>& samples, double q);

}  // namespace perfbench
