// hslb_trace: explain where request latency went.
//
//   $ hslb_trace --trace=BENCH_svc_trace.json
//                [--metrics=BENCH_svc_metrics.prom] [--workers=N]
//                [--json] [--check]
//
// Ingests a Chrome trace written by the allocation service (and optionally
// a Prometheus metrics snapshot for the worker count), reconstructs every
// request's phase timeline (admission / queue / cache / coalesce / LP /
// branching), and prints per-percentile latency attribution plus an
// arrival-vs-service queueing sanity check.  --json emits the
// machine-readable verdict; --check exits non-zero unless the attribution
// is well-formed (requests found, shares sum to ~100%, a dominant p99
// phase named) -- the CI smoke gate.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "hslb/common/table.hpp"
#include "hslb/obs/attribution.hpp"
#include "hslb/obs/exposition.hpp"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int usage() {
  std::cerr << "usage: hslb_trace --trace=<chrome.json>"
               " [--metrics=<snapshot.prom>] [--workers=<n>]"
               " [--json] [--check]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  std::string trace_path;
  std::string metrics_path;
  double workers = 0.0;
  bool as_json = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::stod(arg.substr(std::strlen("--workers=")));
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "--check") {
      check = true;
    } else {
      return usage();
    }
  }
  if (trace_path.empty()) {
    return usage();
  }

  std::string trace_text;
  if (!read_file(trace_path, &trace_text)) {
    std::cerr << "hslb_trace: cannot read " << trace_path << '\n';
    return 1;
  }
  const auto events = obs::parse_chrome_trace(trace_text);
  if (!events) {
    std::cerr << "hslb_trace: " << events.error() << '\n';
    return 1;
  }

  obs::MetricsSnapshot snapshot;
  if (!metrics_path.empty()) {
    std::string metrics_text;
    if (!read_file(metrics_path, &metrics_text)) {
      std::cerr << "hslb_trace: cannot read " << metrics_path << '\n';
      return 1;
    }
    const auto parsed = obs::parse_prometheus(metrics_text);
    if (!parsed) {
      std::cerr << "hslb_trace: " << parsed.error() << '\n';
      return 1;
    }
    snapshot = *parsed;
    if (workers <= 0.0) {
      workers = snapshot.gauge_value("svc.workers", 0.0);
    }
  }

  const obs::Attribution attribution =
      obs::attribute_phases(*events, workers);

  if (as_json) {
    std::cout << obs::attribution_json(attribution).dump(1) << '\n';
  } else {
    std::cout << "requests: " << attribution.requests.size() << '\n'
              << obs::attribution_table(attribution)
              << "arrival " << attribution.queueing.arrival_rate_hz
              << "/s vs capacity "
              << attribution.queueing.workers *
                     attribution.queueing.per_worker_service_rate_hz
              << "/s (utilization " << attribution.queueing.utilization
              << ", " << attribution.queueing.verdict << ")\n"
              << attribution.verdict << '\n';
    if (attribution.lp.epochs > 0) {
      const obs::LpEngineRollup& lp = attribution.lp;
      std::cout << "lp engine: " << lp.lp_ms << " ms across " << lp.epochs
                << " epoch(s) -- factor " << lp.factor_ms << " ms, update "
                << lp.update_ms << " ms, pivot " << lp.pivot_ms << " ms; "
                << lp.eta_updates << " eta update(s), "
                << lp.refactorizations << " refactorization(s)\n";
    }
  }

  if (check) {
    if (attribution.requests.empty()) {
      std::cerr << "check FAILED: no svc.request spans in trace\n";
      return 1;
    }
    if (attribution.dominant_p99_phase == "none" ||
        attribution.dominant_p99_phase.empty()) {
      std::cerr << "check FAILED: no dominant p99 phase\n";
      return 1;
    }
    for (const obs::PercentileAttribution& pa : attribution.percentiles) {
      double sum = 0.0;
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        sum += pa.share[p];
      }
      if (std::fabs(sum - 1.0) > 0.01) {
        std::cerr << "check FAILED: p"
                  << static_cast<int>(pa.quantile * 100.0)
                  << " shares sum to " << sum << " (want ~1)\n";
        return 1;
      }
    }
    std::cerr << "check ok: " << attribution.requests.size()
              << " requests, p99 dominated by "
              << attribution.dominant_p99_phase << '\n';
  }
  return 0;
}
