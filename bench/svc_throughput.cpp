// Load generator for the allocation service: request throughput and cache
// behaviour at 1 / 4 / 16 worker threads.
//
//   $ ./bench_svc_throughput [--json-out=BENCH_svc.json] [--requests=<n>]
//                            [--warm-requests=<n>] [--trace-out=<file>]
//                            [--metrics-out=<file>]
//
// Two phases per worker count:
//   cold -- every request is a distinct question (unique machine-slice
//           size), so the cache never hits and each request costs a full
//           MINLP solve: this measures how solver throughput scales with
//           the worker pool.
//   warm -- the same few questions asked over and over: after the first
//           wave everything is a cache hit, and each answer is checked
//           byte-for-byte against a fresh solve from a cold service.
//
// The cold sweep runs with request telemetry installed: each run collects a
// span trace + HDR histograms, and the per-phase latency attribution
// (obs/attribution.hpp) is folded into the artifact as a
// "phase_attribution" series -- the machine-readable answer to "which phase
// makes p99 climb at 16 workers".  A second 4-worker cold run with the
// sinks detached measures the telemetry overhead.  --trace-out and
// --metrics-out dump the 16-worker run's Chrome trace and Prometheus
// snapshot for the hslb_trace analyzer (the CI smoke gate).
//
// Results (req/s, p50/p99 latency, hit rate, byte-identity) are printed as
// a table and written as a report::ResultSet artifact for CI upload.  The
// throughput numbers are host wall-clock and carry Stability::kTiming; the
// byte-identity verdict and the attribution taxonomy cells are
// deterministic (byte-identity also gates the exit code).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hslb/common/table.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/obs/attribution.hpp"
#include "hslb/obs/exposition.hpp"
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

struct PhaseResult {
  int workers = 0;
  long long requests = 0;
  double seconds = 0.0;
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;  ///< fraction of requests served from the cache
  long long solves = 0;
};

/// Drive `requests` solve() calls from `clients` threads, each request built
/// by `question(i)` over a round-robin of request indices.  Non-null
/// `trace`/`metrics` install request telemetry on the service.
template <typename QuestionFn>
PhaseResult run_phase(int workers, int clients, long long requests,
                      const QuestionFn& question,
                      obs::TraceSession* trace = nullptr,
                      obs::Registry* metrics = nullptr) {
  svc::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(requests) + 16;
  config.obs.trace = trace;
  config.obs.metrics = metrics;
  svc::AllocationService service(config);

  std::mutex latencies_mutex;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(requests));
  std::atomic<long long> next{0};
  std::atomic<long long> failures{0};

  const common::WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::vector<double> local;
      for (;;) {
        const long long i = next.fetch_add(1);
        if (i >= requests) {
          break;
        }
        const svc::AllocationRequest request = question(i);
        const common::WallTimer one;
        const svc::SolveOutcome outcome = service.solve(request);
        local.push_back(one.milliseconds());
        if (!outcome.has_value()) {
          failures.fetch_add(1);
        }
      }
      const std::lock_guard<std::mutex> lock(latencies_mutex);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  PhaseResult result;
  result.workers = workers;
  result.requests = requests;
  result.seconds = timer.seconds();
  result.req_per_s = static_cast<double>(requests) / result.seconds;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = percentile(latencies_ms, 0.50);
  result.p99_ms = percentile(latencies_ms, 0.99);
  const svc::ServiceStats stats = service.stats();
  result.hit_rate = static_cast<double>(stats.cache_hits) /
                    static_cast<double>(std::max(1LL, stats.submitted));
  result.solves = stats.solved;
  if (failures.load() != 0) {
    std::cerr << "warning: " << failures.load() << " requests failed\n";
  }
  return result;
}

void record_phase(report::ResultSet* results, const std::string& series,
                  const PhaseResult& r) {
  const double x = r.workers;
  results->add(series, x, "requests", static_cast<double>(r.requests),
               "count", report::Stability::kTiming, "workers");
  results->add(series, x, "req_per_s", r.req_per_s, "req/s",
               report::Stability::kTiming);
  results->add(series, x, "p50_ms", r.p50_ms, "ms",
               report::Stability::kTiming);
  results->add(series, x, "p99_ms", r.p99_ms, "ms",
               report::Stability::kTiming);
  results->add(series, x, "hit_rate", r.hit_rate, "",
               report::Stability::kTiming);
  results->add(series, x, "solves", static_cast<double>(r.solves), "count",
               report::Stability::kTiming);
}

/// Share of `phase` in the attribution's `quantile` row (0 when absent).
double share_at(const obs::Attribution& attribution, double quantile,
                obs::Phase phase) {
  for (const obs::PercentileAttribution& pa : attribution.percentiles) {
    if (pa.quantile == quantile) {
      return pa.share[static_cast<std::size_t>(phase)];
    }
  }
  return 0.0;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  std::string trace_out;
  std::string metrics_out;
  long long cold_requests = 48;
  long long warm_requests = 400;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--requests=", 0) == 0) {
      cold_requests = std::stoll(arg.substr(std::strlen("--requests=")));
    } else if (arg.rfind("--warm-requests=", 0) == 0) {
      warm_requests = std::stoll(arg.substr(std::strlen("--warm-requests=")));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      std::cerr << "usage: bench_svc_throughput [--json-out=<file.json>]"
                   " [--requests=<n>] [--warm-requests=<n>]"
                   " [--trace-out=<file>] [--metrics-out=<file>]\n";
      return 2;
    }
  }

  const std::string title =
      "Allocation-service throughput (cache cold and warm)";
  const std::string reference =
      "the svc worker-pool front end; hardware-dependent";
  bench::banner(title, reference);
  report::ResultSet results =
      bench::make_result_set("svc_throughput", title, reference);
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << " (worker scaling needs cores; single-core machines serialize"
               " the pool)\n";

  // Cold: every request a distinct question -> zero cache hits by design.
  // Telemetry is on: each run collects a span trace + phase histograms, and
  // the per-worker-count attribution explains where p50/p99 latency goes.
  const auto cold_question = [](long long i) {
    return make_request(64 + 8 * static_cast<int>(i));
  };
  std::vector<PhaseResult> cold;
  std::vector<obs::Attribution> cold_attribution;
  std::unique_ptr<obs::TraceSession> deep_trace;   // 16-worker run, kept
  std::unique_ptr<obs::Registry> deep_metrics;     // for --trace/metrics-out
  for (const int workers : {1, 4, 16}) {
    auto trace = std::make_unique<obs::TraceSession>();
    auto metrics = std::make_unique<obs::Registry>();
    cold.push_back(run_phase(workers, /*clients=*/std::max(2, workers),
                             cold_requests, cold_question, trace.get(),
                             metrics.get()));
    cold_attribution.push_back(obs::attribute_phases(
        trace->events(), static_cast<double>(workers)));
    deep_trace = std::move(trace);
    deep_metrics = std::move(metrics);
  }

  // Telemetry overhead: alternating cold runs with sinks attached/detached,
  // best-of-three each.  One worker keeps the phase serialized (the most
  // repeatable configuration on small hosts) and the min filters scheduler
  // noise; the residual delta is the cost of spans + histogram observes.
  double overhead_on_s = std::numeric_limits<double>::infinity();
  double overhead_off_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    obs::TraceSession rep_trace;
    obs::Registry rep_metrics;
    overhead_on_s = std::min(
        overhead_on_s, run_phase(/*workers=*/1, /*clients=*/2, cold_requests,
                                 cold_question, &rep_trace, &rep_metrics)
                           .seconds);
    overhead_off_s = std::min(
        overhead_off_s,
        run_phase(/*workers=*/1, /*clients=*/2, cold_requests, cold_question)
            .seconds);
  }
  const double telemetry_overhead_pct =
      100.0 * (overhead_on_s - overhead_off_s) /
      std::max(1e-9, overhead_off_s);

  // Warm: four recurring questions -> everything past the first wave hits.
  const std::vector<int> warm_sizes = {128, 192, 256, 320};
  const auto warm_question = [&warm_sizes](long long i) {
    return make_request(
        warm_sizes[static_cast<std::size_t>(i) % warm_sizes.size()]);
  };
  const PhaseResult warm =
      run_phase(/*workers=*/4, /*clients=*/4, warm_requests, warm_question);

  // Byte-identity: each warm answer vs a fresh solve on a cold service.
  bool byte_identical = true;
  {
    svc::ServiceConfig config;
    config.workers = 1;
    svc::AllocationService warm_service(config);
    for (const int nodes : warm_sizes) {
      const svc::AllocationRequest request = make_request(nodes);
      const svc::SolveOutcome first = warm_service.solve(request);
      const svc::AllocationService::Ticket again = warm_service.submit(request);
      const svc::SolveOutcome cached = again.future.get();
      svc::AllocationService fresh_service(config);
      const svc::SolveOutcome fresh = fresh_service.solve(request);
      if (!first.has_value() || !cached.has_value() || !fresh.has_value() ||
          !again.cache_hit ||
          svc::to_json(cached.value()) != svc::to_json(fresh.value())) {
        byte_identical = false;
      }
    }
  }

  common::Table table(
      {"phase", "workers", "requests", "req/s", "p50,ms", "p99,ms", "hit%"});
  const auto add = [&table](const std::string& phase, const PhaseResult& r) {
    table.add_row();
    table.cell(phase);
    table.cell(static_cast<long long>(r.workers));
    table.cell(r.requests);
    table.cell(r.req_per_s, 1);
    table.cell(r.p50_ms, 2);
    table.cell(r.p99_ms, 2);
    table.cell(100.0 * r.hit_rate, 1);
  };
  for (const PhaseResult& r : cold) {
    add("cold", r);
  }
  add("warm", warm);
  std::cout << table;

  const double speedup = cold[1].req_per_s / cold[0].req_per_s;
  std::cout << "cold speedup, 4 vs 1 workers: "
            << common::format_fixed(speedup, 2) << "x\n"
            << "warm hit rate: " << common::format_fixed(
                   100.0 * warm.hit_rate, 1)
            << " % (cached answers byte-identical to fresh solves: "
            << (byte_identical ? "yes" : "NO") << ")\n"
            << "telemetry overhead, 1-worker cold phase (best of 3): "
            << common::format_fixed(telemetry_overhead_pct, 2) << " %\n";

  const obs::Attribution& deep = cold_attribution.back();
  std::cout << "\nphase attribution, 16-worker cold run:\n"
            << obs::attribution_table(deep) << deep.verdict << '\n';

  for (const PhaseResult& r : cold) {
    record_phase(&results, "cold", r);
  }
  record_phase(&results, "warm", warm);

  // Phase-attribution series: per worker count, the share of p50/p99
  // latency spent in each phase.  The taxonomy cell is deterministic -- it
  // pins the schema the hslb_trace analyzer consumes -- while the shares
  // are wall-clock and stay kTiming.
  for (std::size_t k = 0; k < cold.size(); ++k) {
    const double x = cold[k].workers;
    results.add("phase_attribution", x, "taxonomy_phases",
                static_cast<double>(obs::kPhaseCount), "count",
                report::Stability::kDeterministic, "workers");
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      std::string label = obs::phase_name(phase);
      std::replace(label.begin(), label.end(), '.', '_');
      results.add("phase_attribution", x, "p50_share_" + label,
                  share_at(cold_attribution[k], 0.50, phase), "",
                  report::Stability::kTiming);
      results.add("phase_attribution", x, "p99_share_" + label,
                  share_at(cold_attribution[k], 0.99, phase), "",
                  report::Stability::kTiming);
    }
  }
  results.add_scalar("summary", "attribution_phase_count",
                     static_cast<double>(obs::kPhaseCount), "count");
  double dominant_index = -1.0;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    if (deep.dominant_p99_phase ==
        obs::phase_name(static_cast<obs::Phase>(p))) {
      dominant_index = static_cast<double>(p);
    }
  }
  results.add_scalar("summary", "dominant_p99_phase_index_16w",
                     dominant_index, "", report::Stability::kTiming);
  results.add_scalar("summary", "utilization_16w",
                     deep.queueing.utilization, "",
                     report::Stability::kTiming);

  results.add_scalar("summary", "hardware_threads",
                     std::thread::hardware_concurrency(), "count",
                     report::Stability::kTiming);
  results.add_scalar("summary", "cold_speedup_4_vs_1", speedup, "",
                     report::Stability::kTiming);
  results.add_scalar("summary", "telemetry_overhead_pct",
                     telemetry_overhead_pct, "",
                     report::Stability::kTiming);
  // The only deterministic claim this bench makes: cached answers are
  // byte-identical to fresh solves.  It is the exit-code gate too.
  results.add_scalar("summary", "warm_byte_identical",
                     byte_identical ? 1.0 : 0.0, "count");

  // 16-worker run artifacts for the hslb_trace analyzer / CI upload.
  if (!trace_out.empty()) {
    if (!write_text_file(trace_out, deep_trace->to_chrome_json())) {
      std::cerr << "cannot write " << trace_out << '\n';
      return 1;
    }
    std::cout << "Chrome trace written to " << trace_out << '\n';
  }
  if (!metrics_out.empty()) {
    if (!obs::write_metrics_file(metrics_out, deep_metrics->snapshot())) {
      std::cerr << "cannot write " << metrics_out << '\n';
      return 1;
    }
    std::cout << "Prometheus snapshot written to " << metrics_out << '\n';
  }
  return bench::finish(std::move(results), artifact_options, byte_identical);
}
