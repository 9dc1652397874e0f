// Chaos sweep for the allocation service: availability and the degradation
// ladder under deterministic fault injection, plus adaptive admission vs
// the queue-depth-only baseline under overload.
//
//   $ ./bench_svc_chaos [--json-out=BENCH_svc_chaos.json]
//                       [--requests-per-rate=<n>] [--overload-requests=<n>]
//
// Three experiments:
//   sweep    -- fault rates {0, 5, 10, 20} %, one serial client against a
//               one-worker service (serial execution + pure-hash draws =
//               every cell replays exactly).  Each key's first solve is
//               exempt so the cache populates, then a tiny TTL forces every
//               later request back through the chaos-wrapped solve path;
//               the ladder (stale cache -> heuristic grid search) absorbs
//               the faults.  A ladder-off arm at 10 % shows what the rungs
//               buy.  Availability, the ladder-level distribution, breaker
//               trips, hedged retries, and injected-fault counts are all
//               deterministic artifact cells; latency is kTiming.
//   breaker  -- a scripted 100 %-failure window against one key drives the
//               per-case breaker through closed -> open -> half-open ->
//               closed; the transition counts are deterministic cells.
//   overload -- more concurrent clients than workers with a tight deadline:
//               the queue-depth baseline queues requests to die while
//               p99-driven admission sheds early (kOverloaded) and keeps
//               the served tail inside the deadline budget.  Timing cells.
//
// Exit gates (deterministic): chaos-off responses byte-identical to a plain
// pre-chaos service, >= 99 % availability at the 10 % fault rate, and the
// scripted breaker both trips and recovers.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hslb/common/table.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/svc/service.hpp"

#include "bench_util.hpp"

namespace {

using namespace hslb;

std::map<cesm::ComponentKind, perf::PerfModel> bench_fits() {
  using cesm::ComponentKind;
  std::map<ComponentKind, perf::PerfModel> fits;
  fits[ComponentKind::kAtm] =
      perf::PerfModel(perf::PerfParams{40000.0, 0.001, 1.2, 10.0});
  fits[ComponentKind::kOcn] =
      perf::PerfModel(perf::PerfParams{25000.0, 0.002, 1.1, 20.0});
  fits[ComponentKind::kIce] =
      perf::PerfModel(perf::PerfParams{8000.0, 0.0, 1.0, 5.0});
  fits[ComponentKind::kLnd] =
      perf::PerfModel(perf::PerfParams{3000.0, 0.0, 1.0, 2.0});
  return fits;
}

svc::AllocationRequest make_request(int total_nodes) {
  svc::AllocationRequest request;
  request.total_nodes = total_nodes;
  request.fits = bench_fits();
  return request;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One serial chaos arm: `requests` sequential solve() calls round-robin
/// over `keys` distinct questions against a one-worker service.
struct ChaosArm {
  double rate = 0.0;
  bool ladder = true;
  long long requests = 0;
  long long answered = 0;
  long long exact = 0;
  long long stale = 0;
  long long heuristic = 0;
  long long shed = 0;
  double p99_ms = 0.0;        ///< kTiming; everything else deterministic
  svc::ServiceStats stats;
  svc::CacheStats cache;
  svc::BreakerStats breaker;
};

ChaosArm run_chaos_arm(double rate, bool ladder, long long requests,
                       int keys) {
  svc::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.chaos = svc::ChaosSpec::uniform(rate);
  // Each key's first solve is exempt: the cache populates cleanly before
  // the chaos starts, so the stale rung has something to serve.
  config.chaos.exempt_first_attempts = 1;
  // A vanishingly small TTL sends every repeat request back through the
  // solve path (fault opportunities) while keep_expired leaves the expired
  // entry behind for the stale rung.
  config.cache.ttl_seconds = 1e-9;
  config.cache.keep_expired = true;
  config.ladder_enabled = ladder;
  svc::AllocationService service(config);

  ChaosArm arm;
  arm.rate = rate;
  arm.ladder = ladder;
  arm.requests = requests;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(requests));
  for (long long i = 0; i < requests; ++i) {
    const svc::AllocationRequest request =
        make_request(64 + 16 * static_cast<int>(i % keys));
    const common::WallTimer one;
    const svc::SolveOutcome outcome = service.solve(request);
    latencies_ms.push_back(one.milliseconds());
    if (!outcome.has_value()) {
      ++arm.shed;
      continue;
    }
    ++arm.answered;
    switch (outcome->served) {
      case svc::ServeLevel::kExact:
        ++arm.exact;
        break;
      case svc::ServeLevel::kStaleCache:
        ++arm.stale;
        break;
      case svc::ServeLevel::kHeuristic:
        ++arm.heuristic;
        break;
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  arm.p99_ms = percentile(latencies_ms, 0.99);
  arm.stats = service.stats();
  arm.cache = service.cache_stats();
  arm.breaker = service.breaker_stats("1deg").value_or(svc::BreakerStats{});
  return arm;
}

/// Scripted breaker lifecycle: one key, a bounded 100 %-solver-exception
/// window, enough traffic to trip the breaker, probe it, and close it again.
ChaosArm run_breaker_script(long long requests) {
  svc::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  svc::ChaosSpec chaos;
  chaos.solve_exception_prob = 1.0;
  chaos.exempt_first_attempts = 1;  // populate the stale rung first
  chaos.max_fault_attempts = 8;     // then recover: attempts >= 9 are clean
  config.chaos = chaos;
  config.cache.ttl_seconds = 1e-9;
  config.cache.keep_expired = true;
  svc::AllocationService service(config);

  ChaosArm arm;
  arm.rate = 1.0;
  arm.requests = requests;
  const svc::AllocationRequest request = make_request(96);
  for (long long i = 0; i < requests; ++i) {
    const svc::SolveOutcome outcome = service.solve(request);
    if (!outcome.has_value()) {
      ++arm.shed;
      continue;
    }
    ++arm.answered;
    switch (outcome->served) {
      case svc::ServeLevel::kExact:
        ++arm.exact;
        break;
      case svc::ServeLevel::kStaleCache:
        ++arm.stale;
        break;
      case svc::ServeLevel::kHeuristic:
        ++arm.heuristic;
        break;
    }
  }
  arm.stats = service.stats();
  arm.cache = service.cache_stats();
  arm.breaker = service.breaker_stats("1deg").value_or(svc::BreakerStats{});
  return arm;
}

/// One overload arm: `clients` threads race `requests` distinct questions
/// into a deliberately underprovisioned service under a tight deadline.
struct OverloadArm {
  bool adaptive = false;
  long long requests = 0;
  long long served = 0;
  long long shed_deadline = 0;
  long long shed_overload = 0;
  double served_p99_ms = 0.0;  ///< tail of the *answered* requests
  /// Tail excluding the warmup quarter: the admission controller starts
  /// blind (min_observations), so the steady-state tail is the property
  /// the controller actually governs.
  double steady_p99_ms = 0.0;
};

OverloadArm run_overload_arm(bool adaptive, long long requests, int clients,
                             double deadline_seconds, double pace_ms) {
  svc::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = static_cast<std::size_t>(requests) + 16;
  config.default_deadline_seconds = deadline_seconds;
  if (adaptive) {
    config.admission.enabled = true;
    // Headroom accounts for the solve that still runs after the queue wait
    // the p99 measures: shed early enough that wait + solve fits.
    config.admission.headroom = 0.5;
    config.admission.min_observations = 4;
    config.admission.refresh_interval = 2;
    // The request histogram is cumulative, so once the warmup tail is in it
    // the p99 stays over budget; the depth floor is then what re-admits
    // work -- the policy degenerates to "cap the queue while the measured
    // tail is bad".  The in-flight solve is not in queue_depth, so a floor
    // of 1 admits only when nothing is queued ahead: a served request costs
    // at most ~2 solve-times (in-flight remainder + own solve), inside the
    // budget of headroom * deadline = 2.5 solve-times.  Paced clients make
    // this safe: a shed costs the caller a think-time, so the late request
    // indices are not burned in a shed storm while the queue drains.
    config.admission.min_queue_depth = 1;
  }
  obs::Registry metrics;  // the admission controller's p99 source
  config.obs.metrics = &metrics;
  svc::AllocationService service(config);

  std::mutex latencies_mutex;
  std::vector<std::pair<long long, double>> served_ms;  // (index, latency)
  std::atomic<long long> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<std::pair<long long, double>> local;
      for (;;) {
        const long long i = next.fetch_add(1);
        if (i >= requests) {
          break;
        }
        const svc::AllocationRequest request =
            make_request(64 + 8 * static_cast<int>(i));
        const common::WallTimer one;
        const svc::SolveOutcome outcome = service.solve(request);
        if (outcome.has_value()) {
          local.emplace_back(i, one.milliseconds());
        }
        // Pace the client so the offered load is a bounded multiple of the
        // service's capacity instead of an unbounded shed storm: a shed
        // must cost the client a think-time, as it would a real caller.
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            pace_ms));
      }
      const std::lock_guard<std::mutex> lock(latencies_mutex);
      served_ms.insert(served_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  OverloadArm arm;
  arm.adaptive = adaptive;
  arm.requests = requests;
  arm.served = static_cast<long long>(served_ms.size());
  const svc::ServiceStats stats = service.stats();
  arm.shed_deadline = stats.shed_deadline;
  arm.shed_overload = stats.shed_overload;
  std::vector<double> all;
  std::vector<double> steady;
  const long long warmup = requests / 4;
  for (const auto& [index, ms] : served_ms) {
    all.push_back(ms);
    if (index >= warmup) {
      steady.push_back(ms);
    }
  }
  std::sort(all.begin(), all.end());
  std::sort(steady.begin(), steady.end());
  arm.served_p99_ms = percentile(all, 0.99);
  arm.steady_p99_ms = percentile(steady, 0.99);
  return arm;
}

void record_chaos_arm(report::ResultSet* results, const std::string& series,
                      const ChaosArm& arm) {
  const double x = 100.0 * arm.rate;
  const auto det = [&](const std::string& metric, double value,
                       const std::string& unit = "count") {
    results->add(series, x, metric, value, unit,
                 report::Stability::kDeterministic, "fault_rate_pct");
  };
  det("requests", static_cast<double>(arm.requests));
  det("answered", static_cast<double>(arm.answered));
  det("availability",
      static_cast<double>(arm.answered) /
          static_cast<double>(std::max(1LL, arm.requests)),
      "");
  det("served_exact", static_cast<double>(arm.exact));
  det("served_stale", static_cast<double>(arm.stale));
  det("served_heuristic", static_cast<double>(arm.heuristic));
  det("shed", static_cast<double>(arm.shed));
  det("chaos_injected", static_cast<double>(arm.stats.chaos_injected));
  det("hedged_retries", static_cast<double>(arm.stats.hedged_retries));
  det("shed_breaker", static_cast<double>(arm.stats.shed_breaker));
  det("breaker_trips", static_cast<double>(arm.breaker.opened));
  det("breaker_recoveries", static_cast<double>(arm.breaker.closed));
  det("cache_poison_detected", static_cast<double>(arm.cache.poison_detected));
  results->add(series, x, "p99_ms", arm.p99_ms, "ms",
               report::Stability::kTiming);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  long long requests_per_rate = 60;
  long long overload_requests = 48;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests-per-rate=", 0) == 0) {
      requests_per_rate =
          std::stoll(arg.substr(std::strlen("--requests-per-rate=")));
    } else if (arg.rfind("--overload-requests=", 0) == 0) {
      overload_requests =
          std::stoll(arg.substr(std::strlen("--overload-requests=")));
    } else {
      std::cerr << "usage: bench_svc_chaos [--json-out=<file.json>]"
                   " [--requests-per-rate=<n>] [--overload-requests=<n>]\n";
      return 2;
    }
  }

  const std::string title =
      "Allocation-service chaos sweep (degradation ladder + admission)";
  const std::string reference =
      "the svc fault model; deterministic injection, DESIGN.md section 12";
  bench::banner(title, reference);
  report::ResultSet results =
      bench::make_result_set("svc_chaos", title, reference);

  // --- Chaos-off byte-identity: the whole chaos/ladder/breaker machinery,
  // --- disabled, must not move a single output byte. ------------------------
  bool chaos_off_identical = true;
  {
    svc::ServiceConfig chaosless;  // rate-0 chaos spec, ladder armed
    chaosless.workers = 1;
    chaosless.cache.ttl_seconds = 1e-9;
    chaosless.cache.keep_expired = true;
    svc::AllocationService with_machinery(chaosless);
    svc::ServiceConfig plain;  // pre-chaos defaults
    plain.workers = 1;
    svc::AllocationService baseline(plain);
    for (const int nodes : {64, 96, 128}) {
      const svc::AllocationRequest request = make_request(nodes);
      // Two rounds: a cold solve and (machinery side) a TTL-expired
      // re-solve, both of which must match the plain service's bytes.
      const svc::SolveOutcome base = baseline.solve(request);
      for (int round = 0; round < 2; ++round) {
        const svc::SolveOutcome got = with_machinery.solve(request);
        if (!base.has_value() || !got.has_value() ||
            svc::to_json(got.value()) != svc::to_json(base.value())) {
          chaos_off_identical = false;
        }
      }
    }
  }

  // --- Deterministic sweep. -------------------------------------------------
  const int kKeys = 6;
  std::vector<ChaosArm> sweep;
  for (const double rate : {0.0, 0.05, 0.10, 0.20}) {
    sweep.push_back(
        run_chaos_arm(rate, /*ladder=*/true, requests_per_rate, kKeys));
  }
  const ChaosArm ladder_off =
      run_chaos_arm(0.10, /*ladder=*/false, requests_per_rate, kKeys);
  const ChaosArm breaker_script = run_breaker_script(40);

  common::Table table({"arm", "rate%", "req", "avail%", "exact", "stale",
                       "heur", "shed", "inject", "hedged", "trips"});
  const auto add_row = [&table](const std::string& name, const ChaosArm& a) {
    table.add_row();
    table.cell(name);
    table.cell(100.0 * a.rate, 0);
    table.cell(a.requests);
    table.cell(100.0 * static_cast<double>(a.answered) /
                   static_cast<double>(std::max(1LL, a.requests)),
               1);
    table.cell(a.exact);
    table.cell(a.stale);
    table.cell(a.heuristic);
    table.cell(a.shed);
    table.cell(a.stats.chaos_injected);
    table.cell(a.stats.hedged_retries);
    table.cell(a.breaker.opened);
  };
  for (const ChaosArm& arm : sweep) {
    add_row("ladder", arm);
  }
  add_row("ladder-off", ladder_off);
  add_row("breaker", breaker_script);
  std::cout << table;

  const ChaosArm& at10 = sweep[2];
  const double availability_at_10 =
      static_cast<double>(at10.answered) /
      static_cast<double>(std::max(1LL, at10.requests));
  const bool breaker_cycled =
      breaker_script.breaker.opened >= 1 && breaker_script.breaker.closed >= 1;
  std::cout << "availability at 10% fault rate: "
            << common::format_fixed(100.0 * availability_at_10, 2)
            << " % (gate: >= 99 %)\n"
            << "chaos-off outputs byte-identical to the pre-chaos service: "
            << (chaos_off_identical ? "yes" : "NO") << '\n'
            << "scripted breaker tripped " << breaker_script.breaker.opened
            << "x and recovered " << breaker_script.breaker.closed
            << "x (rejected " << breaker_script.breaker.rejected
            << " attempts while open)\n";

  // --- Overload: queue-depth baseline vs p99-driven admission. --------------
  // Calibrate the deadline to this host: a few times the median cold solve.
  double solve_ms = 0.0;
  {
    svc::ServiceConfig config;
    config.workers = 1;
    svc::AllocationService service(config);
    for (const int nodes : {72, 88, 104}) {
      const common::WallTimer one;
      (void)service.solve(make_request(nodes));
      solve_ms = std::max(solve_ms, one.milliseconds());
    }
  }
  const double deadline_seconds = std::max(0.025, 5.0 * solve_ms / 1e3);
  // 8 clients each pacing at ~4 solve-times offer roughly twice the
  // one-worker service's capacity: sustained overload, not a shed storm.
  const double pace_ms = 4.0 * solve_ms;
  const OverloadArm baseline =
      run_overload_arm(/*adaptive=*/false, overload_requests, /*clients=*/8,
                       deadline_seconds, pace_ms);
  const OverloadArm adaptive =
      run_overload_arm(/*adaptive=*/true, overload_requests, /*clients=*/8,
                       deadline_seconds, pace_ms);
  const double budget_ms = 1e3 * deadline_seconds;

  common::Table overload_table({"admission", "req", "served", "shed_dl",
                                "shed_ovl", "p99,ms", "steady_p99,ms",
                                "budget,ms"});
  const auto add_overload = [&](const std::string& name,
                                const OverloadArm& a) {
    overload_table.add_row();
    overload_table.cell(name);
    overload_table.cell(a.requests);
    overload_table.cell(a.served);
    overload_table.cell(a.shed_deadline);
    overload_table.cell(a.shed_overload);
    overload_table.cell(a.served_p99_ms, 2);
    overload_table.cell(a.steady_p99_ms, 2);
    overload_table.cell(budget_ms, 2);
  };
  add_overload("queue-depth", baseline);
  add_overload("p99-adaptive", adaptive);
  std::cout << '\n' << overload_table;
  std::cout << "adaptive steady-state served p99 "
            << common::format_fixed(adaptive.steady_p99_ms, 2)
            << " ms vs budget " << common::format_fixed(budget_ms, 2)
            << " ms (queue-depth baseline: "
            << common::format_fixed(baseline.steady_p99_ms, 2) << " ms)\n";

  // --- Artifact. ------------------------------------------------------------
  for (const ChaosArm& arm : sweep) {
    record_chaos_arm(&results, "chaos_sweep", arm);
  }
  record_chaos_arm(&results, "ladder_off", ladder_off);
  record_chaos_arm(&results, "breaker_script", breaker_script);
  results.add_scalar("summary", "availability_at_10pct", availability_at_10,
                     "");
  results.add_scalar("summary", "chaos_off_byte_identical",
                     chaos_off_identical ? 1.0 : 0.0, "count");
  results.add_scalar("summary", "breaker_cycled", breaker_cycled ? 1.0 : 0.0,
                     "count");
  for (const OverloadArm* arm : {&baseline, &adaptive}) {
    const double x = arm->adaptive ? 1.0 : 0.0;
    results.add("overload", x, "requests",
                static_cast<double>(arm->requests), "count",
                report::Stability::kTiming, "adaptive");
    results.add("overload", x, "served", static_cast<double>(arm->served),
                "count", report::Stability::kTiming);
    results.add("overload", x, "shed_deadline",
                static_cast<double>(arm->shed_deadline), "count",
                report::Stability::kTiming);
    results.add("overload", x, "shed_overload",
                static_cast<double>(arm->shed_overload), "count",
                report::Stability::kTiming);
    results.add("overload", x, "served_p99_ms", arm->served_p99_ms, "ms",
                report::Stability::kTiming);
    results.add("overload", x, "steady_p99_ms", arm->steady_p99_ms, "ms",
                report::Stability::kTiming);
    results.add("overload", x, "steady_p99_under_budget",
                arm->steady_p99_ms <= budget_ms ? 1.0 : 0.0, "count",
                report::Stability::kTiming);
  }
  results.add_scalar("summary", "overload_budget_ms", budget_ms, "ms",
                     report::Stability::kTiming);


  const bool gates_ok =
      chaos_off_identical && availability_at_10 >= 0.99 && breaker_cycled;
  if (!gates_ok) {
    std::cerr << "CHAOS GATE BREAK: identity=" << chaos_off_identical
              << " availability@10%=" << availability_at_10
              << " breaker_cycled=" << breaker_cycled << '\n';
  }
  return bench::finish(std::move(results), artifact_options, gates_ok);
}
