#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::open(const char* name) {
  Record record;
  record.name = name;
  record.parent = open_;
  record.start = Clock::now();
  records_.push_back(record);
  open_ = static_cast<int>(records_.size()) - 1;
  return open_;
}

void Tracer::close(int index) {
  Record& record = records_[static_cast<std::size_t>(index)];
  record.end = Clock::now();
  open_ = record.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ms[static_cast<std::size_t>(record.parent)] +=
          ms_between(record.start, record.end);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const double duration = ms_between(records_[i].start, records_[i].end);
    Totals& totals = out[records_[i].name];
    totals.inclusive_ms += duration;
    totals.self_ms += duration - child_ms[i];
  }
  return out;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 5 || (total < 2.0 && seconds.size() < 25)) {
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(ms_between(start, Clock::now()) / 1e3);
    total += seconds.back();
  }
  return median(seconds);
}

PhaseTimes run_cycles(double seconds, std::size_t min_ops,
                      std::size_t cycle_len,
                      const std::function<void(std::size_t)>& op) {
  PhaseTimes out;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < cycle_len; ++i) {
      const Clock::time_point t0 = Clock::now();
      op(i);
      out.op_ms.push_back(ms_between(t0, Clock::now()));
    }
  } while (ms_between(start, Clock::now()) < seconds * 1e3 ||
           out.op_ms.size() < min_ops);
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over the combined value.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
