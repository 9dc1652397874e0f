#include "hslb/obs/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "hslb/common/numeric.hpp"
#include "hslb/common/table.hpp"

namespace hslb::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kAdmission:
      return "admission";
    case Phase::kQueue:
      return "queue";
    case Phase::kCache:
      return "cache";
    case Phase::kCoalesce:
      return "coalesce";
    case Phase::kSolveLp:
      return "solve.lp";
    case Phase::kSolveOther:
      return "solve.other";
    case Phase::kOther:
      return "other";
  }
  return "?";
}

namespace {

double find_number(const report::Json& object, const std::string& key,
                   double fallback) {
  const report::Json* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string find_string(const report::Json& object, const std::string& key) {
  const report::Json* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string();
}

}  // namespace

common::Expected<std::vector<TraceEvent>, std::string> parse_chrome_trace(
    const std::string& json_text) {
  const auto parsed = report::parse_json(json_text);
  if (!parsed) {
    return common::make_unexpected("trace JSON parse error at line " +
                                   std::to_string(parsed.error().line) +
                                   ": " + parsed.error().message);
  }
  const report::Json* events = parsed->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return common::make_unexpected(
        std::string("trace file has no traceEvents array"));
  }
  std::vector<TraceEvent> out;
  out.reserve(events->size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    const report::Json& entry = events->at(i);
    if (!entry.is_object() || find_string(entry, "ph") != "X") {
      continue;  // counter samples and metadata records
    }
    TraceEvent e;
    e.name = find_string(entry, "name");
    e.category = find_string(entry, "cat");
    e.start_us = find_number(entry, "ts", 0.0);
    e.duration_us = find_number(entry, "dur", 0.0);
    e.thread_id = static_cast<int>(find_number(entry, "tid", 0.0));
    const report::Json* args = entry.find("args");
    if (args != nullptr && args->is_object()) {
      for (const auto& [key, value] : args->items()) {
        if (key == "depth" && value.is_number()) {
          e.depth = static_cast<int>(value.as_number());
        } else if (key == "span" && value.is_number()) {
          e.id = static_cast<std::uint64_t>(value.as_number());
        } else if (key == "parent" && value.is_number()) {
          e.parent = static_cast<std::uint64_t>(value.as_number());
        } else if (value.is_string()) {
          e.args.emplace_back(key, value.as_string());
        } else if (value.is_number()) {
          e.args.emplace_back(key,
                              common::shortest_double(value.as_number()));
        }
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

namespace {

const std::string* find_arg(const TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.args) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

/// Per-request share vector: phases as fractions of total latency, with
/// kOther the residual so the vector sums to exactly 1.  If attributed time
/// exceeds the total (cross-thread clock skew), the attributed phases are
/// scaled down instead of going negative.
std::array<double, kPhaseCount> shares_of(const RequestTimeline& request) {
  std::array<double, kPhaseCount> share{};
  if (request.total_ms <= 0.0) {
    share[static_cast<std::size_t>(Phase::kOther)] = 1.0;
    return share;
  }
  double attributed = 0.0;
  for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
    share[p] = request.phase_ms[p] / request.total_ms;
    attributed += share[p];
  }
  if (attributed > 1.0) {
    for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
      share[p] /= attributed;
    }
    attributed = 1.0;
  }
  share[static_cast<std::size_t>(Phase::kOther)] = 1.0 - attributed;
  return share;
}

}  // namespace

Attribution attribute_phases(const std::vector<TraceEvent>& events,
                             double workers) {
  Attribution out;
  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& e : events) {
    if (e.parent != 0) {
      children[e.parent].push_back(&e);
    }
  }

  // Trace-wide LP engine rollup: every minlp.epoch span, whether or not it
  // hangs under a svc.request (a standalone solver trace has none).
  const auto arg_number = [](const TraceEvent& e, const char* key) {
    const std::string* v = find_arg(e, key);
    return v != nullptr ? std::strtod(v->c_str(), nullptr) : 0.0;
  };
  for (const TraceEvent& e : events) {
    if (e.name != "minlp.epoch") {
      continue;
    }
    out.lp.epochs += 1;
    out.lp.lp_ms += arg_number(e, "lp_ms");
    out.lp.factor_ms += arg_number(e, "factor_ms");
    out.lp.update_ms += arg_number(e, "update_ms");
    out.lp.pivot_ms += arg_number(e, "pivot_ms");
    out.lp.eta_updates += static_cast<long>(arg_number(e, "eta_updates"));
    out.lp.refactorizations +=
        static_cast<long>(arg_number(e, "refactorizations"));
  }

  double wall_start = std::numeric_limits<double>::infinity();
  double wall_end = -std::numeric_limits<double>::infinity();
  for (const TraceEvent& e : events) {
    if (e.name != "svc.request") {
      continue;
    }
    RequestTimeline r;
    r.span = e.id;
    r.start_us = e.start_us;
    r.total_ms = e.duration_us / 1e3;
    if (const std::string* id = find_arg(e, "id")) {
      r.label = *id;
    }
    wall_start = std::min(wall_start, e.start_us);
    wall_end = std::max(wall_end, e.start_us + e.duration_us);

    double solve_ms = 0.0;
    const auto direct = children.find(e.id);
    if (direct != children.end()) {
      for (const TraceEvent* child : direct->second) {
        const double ms = child->duration_us / 1e3;
        if (child->name == "svc.phase.admission") {
          r.phase_ms[static_cast<std::size_t>(Phase::kAdmission)] += ms;
        } else if (child->name == "svc.phase.queue") {
          r.phase_ms[static_cast<std::size_t>(Phase::kQueue)] += ms;
        } else if (child->name == "svc.phase.cache") {
          r.phase_ms[static_cast<std::size_t>(Phase::kCache)] += ms;
        } else if (child->name == "svc.phase.coalesce") {
          r.phase_ms[static_cast<std::size_t>(Phase::kCoalesce)] += ms;
        } else if (child->name == "svc.phase.solve") {
          solve_ms += ms;
        }
      }
    }
    // LP time inside the solve phase: minlp.epoch descendants carry their
    // summed LP wall time as an "lp_ms" arg.
    double lp_ms = 0.0;
    std::vector<std::uint64_t> frontier{e.id};
    while (!frontier.empty()) {
      const std::uint64_t id = frontier.back();
      frontier.pop_back();
      const auto it = children.find(id);
      if (it == children.end()) {
        continue;
      }
      for (const TraceEvent* child : it->second) {
        if (child->name == "minlp.epoch") {
          if (const std::string* tag = find_arg(*child, "lp_ms")) {
            lp_ms += std::strtod(tag->c_str(), nullptr);
          }
        }
        if (child->id != 0) {
          frontier.push_back(child->id);
        }
      }
    }
    const double solve_lp = std::min(lp_ms, solve_ms);
    r.phase_ms[static_cast<std::size_t>(Phase::kSolveLp)] = solve_lp;
    r.phase_ms[static_cast<std::size_t>(Phase::kSolveOther)] =
        solve_ms - solve_lp;
    double attributed = 0.0;
    for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
      attributed += r.phase_ms[p];
    }
    r.phase_ms[static_cast<std::size_t>(Phase::kOther)] =
        std::max(0.0, r.total_ms - attributed);
    out.requests.push_back(std::move(r));
  }

  std::sort(out.requests.begin(), out.requests.end(),
            [](const RequestTimeline& a, const RequestTimeline& b) {
              return a.total_ms != b.total_ms ? a.total_ms < b.total_ms
                                              : a.span < b.span;
            });

  const std::size_t n = out.requests.size();
  if (n > 0) {
    for (const double q : {0.5, 0.9, 0.99}) {
      const std::size_t rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n))));
      const std::size_t index = rank - 1;
      // Average shares over a deterministic window (+-5% of the sample)
      // around the rank so single-request noise does not flip the verdict.
      const std::size_t half = std::max<std::size_t>(1, n / 20);
      const std::size_t lo = index >= half ? index - half : 0;
      const std::size_t hi = std::min(n - 1, index + half);
      PercentileAttribution pa;
      pa.quantile = q;
      pa.latency_ms = out.requests[index].total_ms;
      for (std::size_t i = lo; i <= hi; ++i) {
        const auto share = shares_of(out.requests[i]);
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
          pa.share[p] += share[p];
        }
      }
      const double window = static_cast<double>(hi - lo + 1);
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        pa.share[p] /= window;
      }
      out.percentiles.push_back(pa);
    }
  }

  // Queueing sanity check: arrivals over the trace wall span vs the mean
  // worker-side (cache + solve) service time.
  QueueingCheck& queueing = out.queueing;
  queueing.workers = workers;
  queueing.utilization = std::numeric_limits<double>::quiet_NaN();
  if (n > 0 && wall_end > wall_start) {
    queueing.wall_s = (wall_end - wall_start) / 1e6;
    queueing.arrival_rate_hz = static_cast<double>(n) / queueing.wall_s;
    double worker_ms_total = 0.0;
    std::size_t worker_requests = 0;
    for (const RequestTimeline& r : out.requests) {
      const double worker_ms =
          r.phase_ms[static_cast<std::size_t>(Phase::kCache)] +
          r.phase_ms[static_cast<std::size_t>(Phase::kSolveLp)] +
          r.phase_ms[static_cast<std::size_t>(Phase::kSolveOther)];
      if (worker_ms > 0.0) {
        worker_ms_total += worker_ms;
        ++worker_requests;
      }
    }
    if (worker_requests > 0 && worker_ms_total > 0.0) {
      queueing.per_worker_service_rate_hz =
          1e3 * static_cast<double>(worker_requests) / worker_ms_total;
    }
    if (workers > 0.0 && queueing.per_worker_service_rate_hz > 0.0) {
      queueing.utilization = queueing.arrival_rate_hz /
                             (workers * queueing.per_worker_service_rate_hz);
    }
  }
  if (std::isnan(queueing.utilization)) {
    queueing.verdict = "unknown";
  } else if (queueing.utilization >= 0.9) {
    queueing.verdict = "saturated";
  } else if (queueing.utilization >= 0.7) {
    queueing.verdict = "near-saturation";
  } else {
    queueing.verdict = "headroom";
  }

  if (!out.percentiles.empty()) {
    const PercentileAttribution& p99 = out.percentiles.back();
    std::size_t best = 0;
    for (std::size_t p = 1; p < kPhaseCount; ++p) {
      if (p99.share[p] > p99.share[best]) {
        best = p;
      }
    }
    out.dominant_p99_phase = phase_name(static_cast<Phase>(best));
    out.verdict = "p99 " + common::format_fixed(p99.latency_ms, 1) +
                  " ms is dominated by " + out.dominant_p99_phase + " (" +
                  common::format_fixed(100.0 * p99.share[best], 1) +
                  "% of request time); queueing check: " + queueing.verdict;
  } else {
    out.dominant_p99_phase = "none";
    out.verdict = "no svc.request spans in trace";
  }
  return out;
}

common::Table attribution_table(const Attribution& attribution) {
  common::Table table({"percentile", "latency,ms", "admission%", "queue%",
                       "cache%", "coalesce%", "solve.lp%", "solve.other%",
                       "other%"});
  table.set_align(0, common::Align::kLeft);
  for (const PercentileAttribution& pa : attribution.percentiles) {
    table.add_row();
    std::string label = "p";
    label += std::to_string(
        static_cast<long long>(std::round(pa.quantile * 100.0)));
    table.cell(std::move(label));
    table.cell(pa.latency_ms, 3);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      table.cell(100.0 * pa.share[p], 1);
    }
  }
  return table;
}

namespace {

report::Json number_or_null(double value) {
  return std::isnan(value) ? report::Json::null()
                           : report::Json::number(value);
}

}  // namespace

report::Json attribution_json(const Attribution& attribution) {
  report::Json out = report::Json::object();
  out.set("requests",
          report::Json::integer(
              static_cast<long long>(attribution.requests.size())));
  out.set("dominant_p99_phase",
          report::Json::string(attribution.dominant_p99_phase));
  out.set("verdict", report::Json::string(attribution.verdict));

  report::Json queueing = report::Json::object();
  queueing.set("wall_s", number_or_null(attribution.queueing.wall_s));
  queueing.set("arrival_rate_hz",
               number_or_null(attribution.queueing.arrival_rate_hz));
  queueing.set(
      "per_worker_service_rate_hz",
      number_or_null(attribution.queueing.per_worker_service_rate_hz));
  queueing.set("workers", number_or_null(attribution.queueing.workers));
  queueing.set("utilization",
               number_or_null(attribution.queueing.utilization));
  queueing.set("verdict",
               report::Json::string(attribution.queueing.verdict));
  out.set("queueing", std::move(queueing));

  report::Json lp = report::Json::object();
  lp.set("epochs", report::Json::integer(attribution.lp.epochs));
  lp.set("lp_ms", report::Json::number(attribution.lp.lp_ms));
  lp.set("factor_ms", report::Json::number(attribution.lp.factor_ms));
  lp.set("update_ms", report::Json::number(attribution.lp.update_ms));
  lp.set("pivot_ms", report::Json::number(attribution.lp.pivot_ms));
  lp.set("eta_updates", report::Json::integer(attribution.lp.eta_updates));
  lp.set("refactorizations",
         report::Json::integer(attribution.lp.refactorizations));
  out.set("lp_engine", std::move(lp));

  report::Json percentiles = report::Json::array();
  for (const PercentileAttribution& pa : attribution.percentiles) {
    report::Json row = report::Json::object();
    row.set("q", report::Json::number(pa.quantile));
    row.set("latency_ms", number_or_null(pa.latency_ms));
    report::Json shares = report::Json::object();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      shares.set(phase_name(static_cast<Phase>(p)),
                 report::Json::number(pa.share[p]));
    }
    row.set("shares", std::move(shares));
    percentiles.push_back(std::move(row));
  }
  out.set("percentiles", std::move(percentiles));
  return out;
}

}  // namespace hslb::obs
