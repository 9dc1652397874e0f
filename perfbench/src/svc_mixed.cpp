// svc_mixed: svc::AllocationService::submit under an open loop at one fixed
// offered rate (chaos off, default ladder), then a short closed-loop phase.
//
// One generator thread (this one) sends a seeded mix:
//   cold       fits-only requests with distinct keys (cache inserts),
//   hot        repeats from an 8-key set, far below the 1024-entry cache,
//   pair       two identical fresh keys sent back to back (coalescer),
//   scenario   scenario-by-name requests from a registered corpus.
// Each request is timed from its due time, not its send time, and the
// generator reports how late it sent.  The closed loop keeps a fixed window
// of cold requests outstanding and measures capacity.  Service workers plus
// the generator thread never exceed the hardware threads.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "check.hpp"
#include "hslb/cesm/configs.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/hslb/resilience.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"
#include "hslb/scen/parse.hpp"
#include "hslb/svc/service.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hslb::cesm::ComponentKind;
using hslb::cesm::LayoutKind;

// The request mix follows the repo's own service load programs.
// allocation_server --corpus asks every third request for a corpus scenario
// by name and the rest over its default 8 distinct keys (--distinct), kept
// here as the hot set.  The fits requests split evenly over the three paths one can take:
// a cold key as in bench_svc_throughput's cold phase (cache insert), a
// hot-set repeat (cache hit), and a fresh key sent twice back to back
// (coalescer).  Per draw that is scenario 3/8, cold 1/4, hot 1/4 and pair
// 1/8, because a pair is two requests: requests are 1/3 scenario and 2/9
// each cold, hot and pair.
constexpr double kScenarioDraw = 3.0 / 8.0;
constexpr double kColdDraw = 1.0 / 4.0;
constexpr double kHotDraw = 1.0 / 4.0;  // pair: the remaining 1/8
constexpr std::size_t kHotKeys = 8;
// Rate and limit, from this workload's own closed loop on a 4-core x86-64
// host (3 workers): it completes 86-113 cold requests/s, 93 in the median
// run.  A third of the open-loop requests need a solve (cold keys and pair
// leaders), so 150 req/s asks for about 50 solves/s, about half that
// capacity: queueing shows in the tail without a growing backlog.  Cold
// requests at this rate have a p50 of 22.7 ms; the limit is about eleven
// times that.
constexpr double kOfferedRate = 150.0;     ///< open-loop requests per second
constexpr double kLatencyLimitMs = 250.0;  ///< the workload's SLO
// 14 s of a 20 s run send 2100 requests (21 beyond the p99); the closed
// loop's 6 s complete about 650.
constexpr double kOpenShare = 0.7;         ///< open-loop share of a phase
/// The open loop sends at least this many requests, so that ten lie beyond
/// the p99 of its latencies.
constexpr long kMinOpenRequests = 1000;
constexpr std::size_t kCheckedCold = 60;   ///< cold answers re-solved directly

enum class Kind { kCold, kHot, kPair, kScenario };

struct Planned {
  Kind kind = Kind::kCold;
  double due_ms = 0.0;  ///< offset from the phase start
  hslb::svc::AllocationRequest request;
};

using FitSet = std::map<ComponentKind, hslb::perf::PerfModel>;

struct Inputs {
  std::vector<std::pair<LayoutKind, FitSet>> open_fits;    ///< open loop
  std::vector<std::pair<LayoutKind, FitSet>> closed_fits;  ///< closed loop
  std::vector<hslb::scen::Scenario> corpus;
  std::vector<Planned> schedule;
  double parse_ms = 0.0;
};

FitSet fit_campaign(const hslb::cesm::CaseConfig& one, LayoutKind layout,
                    std::uint64_t seed) {
  const auto campaign = hslb::cesm::gather_benchmarks(
      one, layout, std::vector<int>{128, 256, 512, 1024, 2048}, seed);
  FitSet fits;
  for (const ComponentKind kind : hslb::cesm::kModeledComponents) {
    const hslb::cesm::Series series =
        hslb::cesm::series_for(campaign.samples, kind);
    fits[kind] = hslb::perf::fit(series.nodes, series.seconds).model;
  }
  return fits;
}

hslb::svc::AllocationRequest fits_request(
    const std::pair<LayoutKind, FitSet>& fits, int total_nodes) {
  hslb::svc::AllocationRequest request;
  request.layout = fits.first;
  request.fits = fits.second;
  request.total_nodes = total_nodes;
  return request;
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  const hslb::cesm::CaseConfig one = hslb::cesm::one_degree_case();
  // Layouts 1 and 2 only: on fitted curves the fully sequential model has
  // rare machine sizes whose branch-and-bound runs for minutes, which would
  // turn one request into a stuck worker.
  const LayoutKind layouts[] = {LayoutKind::kHybrid,
                                LayoutKind::kSequentialGroup};
  for (int k = 0; k < 6; ++k) {
    const LayoutKind layout = layouts[k % 2];
    in.open_fits.emplace_back(
        layout, fit_campaign(one, layout, 2014 + static_cast<unsigned>(k)));
  }
  // Not 2115 for layout 2: its fits make minlp::solve throw "singular
  // simplex basis" at 1208 nodes, and the service degrades that answer.
  const std::uint64_t closed_seeds[] = {2114, 2116};
  for (int k = 0; k < 2; ++k) {
    in.closed_fits.emplace_back(
        layouts[k], fit_campaign(one, layouts[k], closed_seeds[k]));
  }

  hslb::scen::GenerateOptions generate;
  generate.scenarios_per_family = 2;
  const auto corpus = hslb::scen::generate_corpus(generate);
  const Clock::time_point parse_start = Clock::now();
  for (const hslb::scen::GeneratedScenario& g : corpus) {
    if (g.scenario.name.rfind("small_", 0) == 0) {
      in.corpus.push_back(
          hslb::scen::parse_scenario(hslb::scen::print_scenario(g.scenario)));
    }
  }
  in.parse_ms = ms_between(parse_start, Clock::now());

  // Distinct machine sizes for the cold and pair keys, drawn without
  // replacement; the hot set sits above that range.
  std::mt19937_64 rng(mix_seed(seed, 0x5c));
  std::vector<int> fresh(2048 - 128);
  std::iota(fresh.begin(), fresh.end(), 128);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  std::size_t next_fresh = 0;
  std::vector<hslb::svc::AllocationRequest> hot;
  for (std::size_t k = 0; k < kHotKeys; ++k) {
    hot.push_back(fits_request(in.open_fits[k % in.open_fits.size()],
                               2048 + 32 * static_cast<int>(k + 1)));
  }

  const long count = std::max(
      kMinOpenRequests, std::lround(kOfferedRate * seconds * kOpenShare));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (long i = 0; i < count && next_fresh + 1 < fresh.size(); ++i) {
    Planned p;
    p.due_ms = 1e3 * static_cast<double>(i) / kOfferedRate;
    const double u = unit(rng);
    if (u < kColdDraw) {
      p.kind = Kind::kCold;
      p.request = fits_request(in.open_fits[pick(in.open_fits.size())],
                               fresh[next_fresh++]);
    } else if (u < kColdDraw + kHotDraw) {
      p.kind = Kind::kHot;
      p.request = hot[pick(hot.size())];
    } else if (u >= kColdDraw + kHotDraw + kScenarioDraw) {
      p.kind = Kind::kPair;
      p.request = fits_request(in.open_fits[pick(in.open_fits.size())],
                               fresh[next_fresh++]);
      in.schedule.push_back(p);  // the leader; the follower goes out next
      ++i;
    } else {
      p.kind = Kind::kScenario;
      p.request.case_name = in.corpus[pick(in.corpus.size())].name;
    }
    in.schedule.push_back(p);
  }
  return in;
}

hslb::svc::ServiceConfig service_config(const hslb::obs::Options& sinks) {
  hslb::svc::ServiceConfig config;
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  config.workers = static_cast<int>(hw) - 1;  // plus the generator thread
  config.obs = sinks;
  return config;
}

/// One completed request of a phase.
struct Done {
  std::size_t index = 0;
  double latency_ms = 0.0;
  hslb::svc::SolveOutcome outcome;
};

struct PhaseResult {
  std::vector<Done> open;        ///< by schedule index
  std::vector<double> late_ms;   ///< send time minus due time
  std::vector<double> submit_us;
  std::vector<double> queue_depth;
  long closed_done = 0;
  double closed_wall_s = 0.0;
  /// Closed-loop requests and their answers.
  std::vector<std::pair<hslb::svc::AllocationRequest,
                        hslb::svc::SolveOutcome>> closed;
  hslb::svc::ServiceStats stats;
  hslb::svc::CacheStats cache;
};

struct InFlight {
  std::size_t index = 0;
  Clock::time_point due;
  hslb::svc::ResponseFuture future;
};

bool ready(const hslb::svc::ResponseFuture& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// One phase on a fresh service: the open loop sends the first `share` of
/// the schedule, and the closed loop then runs for `share` of its length.
PhaseResult run_phase(const Inputs& in, double seconds, double share,
                      const hslb::obs::Options& sinks, std::uint64_t seed) {
  PhaseResult out;
  hslb::svc::AllocationService service(service_config(sinks));
  for (const hslb::scen::Scenario& scenario : in.corpus) {
    service.register_scenario(scenario);
  }

  // --- Open loop. -------------------------------------------------------------
  const double open_ms = share * in.schedule.back().due_ms;
  std::vector<InFlight> flying;
  const auto reap = [&out, &flying] {
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < flying.size();) {
      if (ready(flying[k].future)) {
        out.open.push_back(Done{flying[k].index,
                                ms_between(flying[k].due, now),
                                flying[k].future.get()});
        flying[k] = std::move(flying.back());
        flying.pop_back();
      } else {
        ++k;
      }
    }
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    const Planned& p = in.schedule[i];
    if (p.due_ms > open_ms) {
      break;
    }
    const Clock::time_point due =
        start + std::chrono::microseconds(std::llround(p.due_ms * 1e3));
    while (Clock::now() < due) {
      reap();
      std::this_thread::sleep_until(
          std::min(due, Clock::now() + std::chrono::microseconds(100)));
    }
    const Clock::time_point sent = Clock::now();
    out.late_ms.push_back(ms_between(due, sent));
    hslb::svc::AllocationService::Ticket ticket = service.submit(p.request);
    out.submit_us.push_back(ms_between(sent, Clock::now()) * 1e3);
    out.queue_depth.push_back(static_cast<double>(service.queue_depth()));
    flying.push_back(InFlight{i, due, std::move(ticket.future)});
  }
  while (!flying.empty()) {
    reap();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // --- Closed loop: a fixed window of fresh cold requests. --------------------
  const int window = 2 * service_config(sinks).workers;
  std::mt19937_64 rng(mix_seed(seed, 0xc105ed));
  std::vector<int> fresh(2048 - 128);
  std::iota(fresh.begin(), fresh.end(), 128);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  std::size_t next = 0;
  const auto next_request = [&] {
    const auto& fits = in.closed_fits[next % in.closed_fits.size()];
    return fits_request(fits, fresh[next++ % fresh.size()]);
  };
  std::vector<std::pair<hslb::svc::AllocationRequest,
                        hslb::svc::ResponseFuture>> window_slots;
  const auto send = [&] {
    hslb::svc::AllocationRequest request = next_request();
    hslb::svc::ResponseFuture future = service.submit(request).future;
    return std::make_pair(std::move(request), std::move(future));
  };
  const Clock::time_point closed_start = Clock::now();
  const double closed_ms = share * 1e3 * seconds * (1.0 - kOpenShare);
  for (int w = 0; w < window; ++w) {
    window_slots.push_back(send());
  }
  while (ms_between(closed_start, Clock::now()) < closed_ms &&
         next < fresh.size()) {
    for (auto& slot : window_slots) {
      if (ready(slot.second)) {
        out.closed.emplace_back(slot.first, slot.second.get());
        ++out.closed_done;
        slot = send();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  out.closed_wall_s = ms_between(closed_start, Clock::now()) / 1e3;
  for (auto& slot : window_slots) {
    // Drained, not counted in capacity.
    out.closed.emplace_back(slot.first, slot.second.get());
  }
  out.stats = service.stats();
  out.cache = service.cache_stats();
  return out;
}

/// The direct (service-free) answer to a request, serialized the way the
/// service serializes its own, plus the direct solve time.
std::pair<std::string, double> direct_answer(
    const hslb::svc::AllocationRequest& request,
    const hslb::cesm::CaseConfig& one,
    const std::vector<hslb::scen::Scenario>& corpus) {
  hslb::svc::AllocationResponse response;
  const Clock::time_point start = Clock::now();
  for (const hslb::scen::Scenario& scenario : corpus) {
    if (scenario.name != request.case_name) {
      continue;
    }
    hslb::scen::ScenarioModelVars vars;
    const hslb::minlp::MinlpResult result =
        hslb::minlp::solve(hslb::scen::build_scenario_model(scenario, &vars));
    const hslb::scen::ScenAllocation alloc =
        hslb::scen::extract_scenario_allocation(scenario, vars, result);
    response.solver_status = result.status;
    response.nodes_explored = result.stats.nodes_explored;
    response.scenario_nodes = alloc.nodes;
    response.scenario_objective = alloc.objective;
    return {hslb::svc::to_json(response), ms_between(start, Clock::now())};
  }
  hslb::core::PipelineConfig config;
  config.case_config = one;
  config.layout = request.layout;
  config.objective = request.objective;
  config.total_nodes = request.total_nodes;
  config.tsync = request.tsync;
  const hslb::core::HslbResult r =
      hslb::core::run_hslb_from_fits(config, request.fits);
  response.allocation = r.allocation;
  response.tsync_used = r.tsync_used;
  response.solver_status = r.solver_result.status;
  response.nodes_explored = r.solver_result.stats.nodes_explored;
  response.degraded = r.degraded;
  return {hslb::svc::to_json(response), ms_between(start, Clock::now())};
}

/// Independent check of one service answer; empty when it passes.
std::string check_answer(const hslb::svc::AllocationRequest& request,
                         const hslb::svc::SolveOutcome& outcome,
                         const hslb::cesm::CaseConfig& one,
                         const std::vector<hslb::scen::Scenario>& corpus) {
  if (!outcome.has_value()) {
    return std::string("error ") + hslb::svc::to_string(outcome.error().code) +
           ": " + outcome.error().message;
  }
  const hslb::svc::AllocationResponse& response = *outcome;
  if (response.degraded ||
      response.served != hslb::svc::ServeLevel::kExact) {
    return "degraded answer";
  }
  for (const hslb::scen::Scenario& scenario : corpus) {
    if (scenario.name == request.case_name) {
      std::vector<int> nodes;
      for (const hslb::scen::ScenComponent& c : scenario.components) {
        const auto it = response.scenario_nodes.find(c.name);
        nodes.push_back(it == response.scenario_nodes.end() ? 0 : it->second);
      }
      return check_scenario_answer(scenario, nodes,
                                   response.scenario_objective);
    }
  }
  LayoutAnswer answer;
  answer.layout = request.layout;
  answer.total_nodes = request.total_nodes;
  answer.perf = request.fits;
  answer.atm_allowed = one.atm_allowed;
  answer.ocn_allowed = one.ocn_allowed;
  answer.min_nodes = one.min_nodes;
  answer.tsync = response.tsync_used;
  answer.nodes = response.allocation.nodes;
  answer.objective = response.allocation.predicted_total;
  return check_layout_answer(answer);
}

}  // namespace

Outcome run_svc_mixed(const RunOptions& options) {
  Outcome out;
  Inputs in;
  const auto setup = [&] {
    in = make_inputs(options.seed, options.seconds);
    // The catalog the phases serve from: built here once to time it, then
    // rebuilt per phase so every phase starts with a cold cache.
    hslb::svc::AllocationService service(service_config({}));
    for (const hslb::scen::Scenario& scenario : in.corpus) {
      service.register_scenario(scenario);
    }
  };
  out.set("setup_s", timed_setup(setup), "s");

  // A traced run runs this phase in full too, so that its per-layer tails
  // rest on as many requests, and adds two half-length phases for the
  // overheads.
  const PhaseResult plain =
      run_phase(in, options.seconds, 1.0, hslb::obs::Options{}, options.seed);

  // --- Checks: every answer independently; a seeded subset byte-equal to a
  // --- direct solve. ------------------------------------------------------------
  const hslb::cesm::CaseConfig one = hslb::cesm::one_degree_case();
  std::vector<double> latency;
  std::vector<double> overhead_ms;
  std::vector<double> ratio;
  std::vector<double> pred_err;
  long slo_miss = 0;
  std::size_t cold_checked = 0;
  std::map<std::string, bool> scenario_checked;
  std::set<int> executed;  // classic keys differ by machine size
  std::map<Kind, std::vector<double>> latency_by_kind;
  std::vector<Done> open = plain.open;
  std::sort(open.begin(), open.end(),
            [](const Done& a, const Done& b) { return a.index < b.index; });
  for (const Done& d : open) {
    const Planned& p = in.schedule[d.index];
    latency.push_back(d.latency_ms);
    latency_by_kind[p.kind].push_back(d.latency_ms);
    ++out.attempted;
    std::string why = check_answer(p.request, d.outcome, one, in.corpus);
    const bool scenario = p.kind == Kind::kScenario;
    if (why.empty() && !scenario &&
        executed.insert(p.request.total_nodes).second) {
      const hslb::core::Allocation& alloc = d.outcome->allocation;
      const hslb::cesm::RunResult run =
          hslb::cesm::run_case(one, alloc.as_layout(p.request.layout), 2015);
      pred_err.push_back(100.0 *
                         std::fabs(run.model_seconds - alloc.predicted_total) /
                         run.model_seconds);
    }
    const bool direct =
        why.empty() && ((p.kind == Kind::kCold && cold_checked < kCheckedCold) ||
                        (scenario && !scenario_checked[p.request.case_name]));
    if (direct) {
      const auto [json, solve_ms] = direct_answer(p.request, one, in.corpus);
      if (json != hslb::svc::to_json(*d.outcome)) {
        why = "service answer differs from a direct solve";
      }
      if (scenario) {
        scenario_checked[p.request.case_name] = true;
        const auto it = std::find_if(
            in.corpus.begin(), in.corpus.end(),
            [&p](const auto& sc) { return sc.name == p.request.case_name; });
        ratio.push_back(d.outcome->scenario_objective /
                        hslb::scen::heuristic_allocation(*it).objective);
      } else {
        ++cold_checked;
        overhead_ms.push_back(d.latency_ms - solve_ms);
        hslb::core::LayoutModelSpec spec;
        spec.layout = p.request.layout;
        spec.total_nodes = p.request.total_nodes;
        spec.perf = p.request.fits;
        spec.min_nodes = one.min_nodes;
        spec.atm_allowed = one.atm_allowed;
        spec.ocn_allowed = one.ocn_allowed;
        ratio.push_back(
            d.outcome->allocation.predicted_total /
            hslb::core::heuristic_allocation(spec).predicted_total);
      }
    }
    if (!why.empty()) {
      out.fail(why);
    }
    if (!why.empty() || d.latency_ms > kLatencyLimitMs) {
      ++slo_miss;
    }
  }
  for (const auto& [request, outcome] : plain.closed) {
    ++out.attempted;
    const std::string why = check_answer(request, outcome, one, in.corpus);
    if (!why.empty()) {
      out.fail("closed loop, N=" + std::to_string(request.total_nodes) +
               ": " + why);
    }
  }

  std::cerr << "  " << latency.size() << " open-loop requests, "
            << plain.closed_done << " closed-loop completions\n";
  const char* kind_names[] = {"cold", "hot", "pair", "scenario"};
  for (const auto& [kind, ms] : latency_by_kind) {
    std::cerr << "  " << kind_names[static_cast<int>(kind)] << ": "
              << ms.size() << " requests, p50 " << median(ms) << " ms\n";
  }
  out.set("op_ms_p50", median(latency), "ms");
  out.set("op_ms_p90", tail_quantile(latency, 0.90), "ms");
  out.set("svc.request_ms_p99", tail_quantile(latency, 0.99), "ms");
  out.set("ops_per_s", static_cast<double>(plain.closed_done) /
                           plain.closed_wall_s, "1/s");
  out.set("objective_ratio", mean(ratio), "ratio");
  out.set("pred_err_pct", median(pred_err), "%");
  out.set("scen.parse_ms", in.parse_ms, "ms");

  const double submitted = static_cast<double>(plain.stats.submitted);
  out.set("svc.submit_us_p50", median(plain.submit_us), "us");
  out.set("svc.hit_frac",
          static_cast<double>(plain.stats.cache_hits) / submitted, "ratio");
  out.set("svc.coalesced_frac",
          static_cast<double>(plain.stats.coalesced) / submitted, "ratio");
  out.set("svc.queue_depth_p99", tail_quantile(plain.queue_depth, 0.99),
          "count");
  out.set("svc.overhead_ms_p50", median(overhead_ms), "ms");
  out.set("svc.solves", static_cast<double>(plain.stats.solved) / submitted,
          "count");
  out.set("svc.shed",
          static_cast<double>(plain.stats.shed_queue_full +
                              plain.stats.shed_deadline +
                              plain.stats.shed_overload +
                              plain.stats.shed_breaker) /
              submitted,
          "count");
  out.set("svc.evictions",
          static_cast<double>(plain.cache.evictions) / submitted, "count");
  out.set("svc.slo_miss_frac",
          static_cast<double>(slo_miss) /
              static_cast<double>(std::max<std::size_t>(1, plain.open.size())),
          "ratio");
  out.set("loadgen.late_ms_p99", tail_quantile(plain.late_ms, 0.99), "ms");

  if (options.trace) {
    const auto p50 = [](const PhaseResult& r) {
      std::vector<double> ms;
      for (const Done& d : r.open) {
        ms.push_back(d.latency_ms);
      }
      return median(ms);
    };
    const PhaseSinks traced(Phase::kTraced);
    const PhaseResult with_registry =
        run_phase(in, options.seconds, 0.5, traced.options(), options.seed);
    const PhaseSinks telemetry(Phase::kTelemetry);
    const PhaseResult with_sinks =
        run_phase(in, options.seconds, 0.5, telemetry.options(), options.seed);
    const auto snap = traced.registry().snapshot();
    const auto* solve = snap.find_histogram("svc.solve.ms");
    emit_solver_layers(&out, snap,
                       static_cast<double>(with_registry.stats.submitted),
                       solve != nullptr ? solve->sum : kNoData);
    out.set("bench.trace_overhead_pct",
            pct_over(p50(with_registry), p50(plain)), "%");
    out.set("obs.telemetry_overhead_pct",
            pct_over(p50(with_sinks), p50(plain)), "%");
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
