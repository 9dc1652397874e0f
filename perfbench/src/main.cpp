// hslb_perfbench: one workload per process, so peak_rss_mb does not mix.
//
//   hslb_perfbench --workload <pipeline|bb_hard|svc_mixed|rebal_drift>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"} carrying every
// metric the workload measured (perfbench/run.py keeps the ones
// BENCHMARK.json names for the run's --trace mode).  A metric that recorded
// no data (kNoData) fails the run.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: hslb_perfbench --workload "
               "<pipeline|bb_hard|svc_mixed|rebal_drift> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) {
    return usage();
  }

  Outcome (*run)(const RunOptions&) = nullptr;
  if (options.workload == "pipeline") {
    run = run_pipeline;
  } else if (options.workload == "bb_hard") {
    run = run_bb_hard;
  } else if (options.workload == "svc_mixed") {
    run = run_svc_mixed;
  } else if (options.workload == "rebal_drift") {
    run = run_rebal_drift;
  } else {
    return usage();
  }

  Outcome result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  for (const std::string& why : result.failures) {
    std::cerr << "check failed: " << why << '\n';
  }
  std::cerr << options.workload << " seed " << options.seed << " trace "
            << options.trace << ": attempted " << result.attempted
            << ", failed " << result.failed << '\n';
  bool complete = true;
  for (const auto& [name, metric] : result.metrics) {
    std::cerr << "  " << name << " = " << metric.value << ' ' << metric.unit
              << '\n';
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: " << name << " recorded no data\n";
      complete = false;
    }
  }
  if (!complete) {
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
