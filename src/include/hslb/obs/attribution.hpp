// Per-request phase attribution: where a request's latency actually went.
//
// The allocation service (svc/service.cpp) emits one "svc.request" span per
// request plus "svc.phase.*" child spans (admission, queue, cache, coalesce,
// solve), and the solver tags its "minlp.epoch" spans with the LP time spent
// inside each epoch.  This module walks that span tree -- re-parsed from a
// Chrome trace file or taken live from a TraceSession -- and answers the
// scaling question the bench keeps raising: when p99 climbs, which phase is
// climbing?
//
// The analysis is deterministic: requests sort by (latency, span id), the
// percentile windows are fixed ranks, and every share vector sums to 1 by
// construction (a residual "other" phase absorbs un-attributed time).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hslb/common/expected.hpp"
#include "hslb/common/table.hpp"
#include "hslb/obs/trace.hpp"
#include "hslb/report/json.hpp"

namespace hslb::obs {

/// Attribution phase taxonomy.  kSolveLp is the LP-re-solve time inside the
/// solve phase (from minlp.epoch "lp_ms" tags); kSolveOther is the rest of
/// the solve phase (branching, pivots bookkeeping, merge).  kOther is the
/// residual so per-request shares always sum to exactly one.
enum class Phase {
  kAdmission = 0,
  kQueue,
  kCache,
  kCoalesce,
  kSolveLp,
  kSolveOther,
  kOther,
};

inline constexpr std::size_t kPhaseCount = 7;

/// Stable lowercase phase label ("queue", "solve.lp", ...).
const char* phase_name(Phase phase);

/// One request's reconstructed timeline.
struct RequestTimeline {
  std::uint64_t span = 0;   ///< id of the svc.request span
  std::string label;        ///< the request's "id" arg when present
  double start_us = 0.0;    ///< request span start (session epoch)
  double total_ms = 0.0;    ///< end-to-end request latency
  std::array<double, kPhaseCount> phase_ms{};  ///< per-phase wall time
};

/// Phase shares averaged over a deterministic window of requests around one
/// latency percentile.  Shares are fractions of per-request latency and sum
/// to 1 (up to float rounding).
struct PercentileAttribution {
  double quantile = 0.0;
  double latency_ms = 0.0;  ///< nearest-rank request latency at `quantile`
  std::array<double, kPhaseCount> share{};
};

/// Arrival-vs-service sanity check (M/M/c-style, no distributional claims):
/// lambda from request starts over the trace wall span, mu from mean
/// worker-side time (cache + solve phases).  utilization = lambda /
/// (workers * mu); NaN when the worker count is unknown.
struct QueueingCheck {
  double wall_s = 0.0;
  double arrival_rate_hz = 0.0;
  double per_worker_service_rate_hz = 0.0;
  double workers = 0.0;
  double utilization = 0.0;
  std::string verdict;  ///< "saturated" / "near-saturation" / "headroom"
};

/// LP engine health rolled up over every "minlp.epoch" span in the trace:
/// where LP time went (factorize / eta update / pivot) and the maintained-
/// factor event counts the solver tagged onto its epoch spans.
struct LpEngineRollup {
  double lp_ms = 0.0;      ///< summed LP wall time across epochs
  double factor_ms = 0.0;  ///< ... spent building LU factorizations
  double update_ms = 0.0;  ///< ... spent appending eta updates
  double pivot_ms = 0.0;   ///< ... spent in the pivot loops proper
  long eta_updates = 0;
  long refactorizations = 0;
  long epochs = 0;  ///< minlp.epoch spans seen (0: trace carries no solver)
};

/// Full analysis result.
struct Attribution {
  std::vector<RequestTimeline> requests;  ///< sorted by (total_ms, span)
  std::vector<PercentileAttribution> percentiles;  ///< p50, p90, p99
  QueueingCheck queueing;
  LpEngineRollup lp;               ///< trace-wide solver LP phase rollup
  std::string dominant_p99_phase;  ///< phase_name of the largest p99 share
  std::string verdict;             ///< one human-readable sentence
};

/// Parse a Chrome trace_event file written by TraceSession::to_chrome_json
/// back into span events ("ph":"X" only; counter samples are skipped).  The
/// span/parent/depth args round-trip; other args come back as strings.
common::Expected<std::vector<TraceEvent>, std::string> parse_chrome_trace(
    const std::string& json_text);

/// Run the analysis.  `workers` sizes the queueing check (pass the service's
/// worker count, e.g. from the svc.workers gauge); 0 leaves utilization NaN.
Attribution attribute_phases(const std::vector<TraceEvent>& events,
                             double workers = 0.0);

/// Percentile rows (latency + per-phase share columns) for terminals.
common::Table attribution_table(const Attribution& attribution);

/// Machine-readable form: request count, queueing numbers, dominant phase,
/// and per-percentile share objects.  Canonical key order.
report::Json attribution_json(const Attribution& attribution);

}  // namespace hslb::obs
