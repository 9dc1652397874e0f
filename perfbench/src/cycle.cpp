#include <algorithm>
#include <iostream>
#include <limits>
#include <numeric>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

PhaseSinks::PhaseSinks(Phase phase) : phase_(phase) {
  if (phase != Phase::kPlain) {
    registry_ = std::make_unique<hslb::obs::Registry>();
    options_.metrics = registry_.get();
  }
  if (phase == Phase::kTelemetry) {
    session_ = std::make_unique<hslb::obs::TraceSession>();
    options_.trace = session_.get();
  }
}

double tail_quantile(const std::vector<double>& samples, double q) {
  // The slack absorbs rounding: (1 - 0.9) * 100 is 9.999999999999998.
  const double beyond = (1.0 - q) * static_cast<double>(samples.size());
  return beyond >= 10.0 - 1e-9 ? quantile(samples, q) : kNoData;
}

namespace {

/// Fastest time of each cycle slot across the cycles of a phase.
std::vector<double> slot_minima(const PhaseTimes& t, std::size_t cycle_len) {
  std::vector<double> out(cycle_len, std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < t.op_ms.size(); ++k) {
    out[k % cycle_len] = std::min(out[k % cycle_len], t.op_ms[k]);
  }
  return out;
}

/// The fastest `per_slot` times of every cycle slot, pooled.
std::vector<double> fastest_per_slot(const PhaseTimes& t, std::size_t cycle_len,
                                     std::size_t per_slot) {
  std::vector<double> out;
  for (std::size_t i = 0; i < cycle_len; ++i) {
    std::vector<double> slot;
    for (std::size_t k = i; k < t.op_ms.size(); k += cycle_len) {
      slot.push_back(t.op_ms[k]);
    }
    std::sort(slot.begin(), slot.end());
    slot.resize(std::min(slot.size(), per_slot));
    out.insert(out.end(), slot.begin(), slot.end());
  }
  return out;
}

}  // namespace

void measure_cycles(const RunOptions& options, const CycleWorkload& workload,
                    Outcome* out) {
  const auto run_phase = [&](double seconds, std::size_t min_ops,
                             const PhaseSinks& sinks) {
    return run_cycles(seconds, min_ops, workload.cycle_len,
                      [&](std::size_t i) {
                        const Span span("op");
                        workload.op(i, sinks);
                      });
  };
  // Every slot repeats identical work, so its fastest time across cycles is
  // its cost with the machine's bursts of contention filtered out; the
  // median and the throughput run over one cycle of those.  (A raw median
  // of a fixed mixture would sit in the gap between two slots and follow
  // their extremes.)
  const auto cycle_ms = [&](const PhaseTimes& t) {
    return slot_minima(t, workload.cycle_len);
  };
  const auto emit_e2e = [&](const PhaseTimes& t) {
    const std::vector<double> ms = cycle_ms(t);
    for (std::size_t i = 0; i < workload.slot_names.size(); ++i) {
      std::vector<double> slot;
      for (std::size_t k = i; k < t.op_ms.size(); k += workload.cycle_len) {
        slot.push_back(t.op_ms[k]);
      }
      std::cerr << "  slot " << workload.slot_names[i] << ": fastest "
                << ms[i] << " ms, median " << median(slot) << " ms\n";
    }
    std::cerr << "  " << t.op_ms.size() << " operations\n";
    out->set("op_ms_p50", median(ms), "ms");
    out->set("ops_per_s",
             static_cast<double>(ms.size()) * workload.work_per_op * 1e3 /
                 std::accumulate(ms.begin(), ms.end(), 0.0),
             "1/s");
  };

  if (!options.trace) {
    const PhaseSinks plain(Phase::kPlain);
    emit_e2e(run_phase(options.seconds, workload.min_ops, plain));
    return;
  }

  // The three phases run interleaved in rounds, so drift over the life of
  // the process (clock ramp, allocator growth) lands on all of them alike.
  constexpr int kRounds = 3;
  const double slice = options.seconds / (3.0 * kRounds);
  const PhaseSinks plain(Phase::kPlain);
  const PhaseSinks traced(Phase::kTraced);
  const PhaseSinks telemetry(Phase::kTelemetry);
  PhaseTimes base;
  PhaseTimes with_spans;
  PhaseTimes with_sinks;
  const auto append = [](PhaseTimes* into, const PhaseTimes& more) {
    into->op_ms.insert(into->op_ms.end(), more.op_ms.begin(),
                       more.op_ms.end());
  };
  tracer().clear();
  for (int round = 0; round < kRounds; ++round) {
    // The sinks-off phase holds as many operations as a plain run at least,
    // for the tail below.
    append(&base, run_phase(slice, (workload.min_ops + kRounds - 1) / kRounds,
                            plain));
    tracer().set_enabled(true);
    append(&with_spans, run_phase(slice, 0, traced));
    tracer().set_enabled(false);
    append(&with_sinks, run_phase(slice, 0, telemetry));
  }

  const double ops = static_cast<double>(with_spans.op_ms.size());
  const auto totals = tracer().totals();
  emit_span_layers(out, totals, workload.spans, ops);
  const auto inclusive_ms = [&totals](const char* span) {
    const auto it = totals.find(span);
    return it == totals.end() ? kNoData : it->second.inclusive_ms;
  };
  const double solve_ms = workload.traced_solve_ms
                              ? workload.traced_solve_ms()
                              : inclusive_ms("minlp.solve");
  emit_solver_layers(out, traced.registry().snapshot(), ops, solve_ms);
  const auto op = totals.find("op");
  out->set("bench.unattributed_pct",
           op == totals.end()
               ? kNoData
               : 100.0 * op->second.self_ms / op->second.inclusive_ms,
           "%");
  // Overheads compare whole cycles.
  const auto cycle_total = [&](const PhaseTimes& t) {
    const std::vector<double> ms = cycle_ms(t);
    return std::accumulate(ms.begin(), ms.end(), 0.0);
  };
  const double base_ms = cycle_total(base);
  out->set("bench.trace_overhead_pct",
           pct_over(cycle_total(with_spans), base_ms), "%");
  out->set("obs.telemetry_overhead_pct",
           pct_over(cycle_total(with_sinks), base_ms), "%");

  // The p90 of the sinks-off phase.  It needs ten samples beyond it, more
  // than one cycle has, so it runs over the fastest ceil(kTailOps / K) times
  // of each of the K slots: every slot keeps its weight in the mix, and each
  // one's times come from its own quiet moments.  A cycle of K slots puts
  // the p90 in the middle of one slot's times, away from the gaps, when
  // 0.9 K is a half-integer; the cycles have 5 or 15 slots for that reason.
  // The tail slots are the ones a shared host slows most, so this is a
  // per-layer metric: its quartile spread over ten runs reached 0.3-0.4,
  // above any bound an end-to-end metric may have.
  const std::vector<double> fast = fastest_per_slot(
      base, workload.cycle_len,
      (kTailOps + workload.cycle_len - 1) / workload.cycle_len);
  std::cerr << "  p90 over " << fast.size() << " of " << base.op_ms.size()
            << " sinks-off operations\n";
  out->set("op_ms_p90", tail_quantile(fast, 0.90), "ms");
  if (workload.traced_layers) {
    workload.traced_layers(out, with_spans, traced);
  }
}

}  // namespace perfbench
