// Shared machinery of the perfbench harness: wall clock, sample statistics,
// the benchmark's own span tracer, the metric sink, and the cycle loop every
// cycle-based workload runs.
//
// Spans are recorded only around the benchmark's calls into the library's
// public entry points (never inside src/), on the harness thread.  A span's
// self time is its duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Median of a copy.
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set size of this process in MB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Span tracer (single-threaded: the harness thread only).

class Tracer {
 public:
  struct Totals {
    double inclusive_ms = 0.0;
    double self_ms = 0.0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void clear() {
    records_.clear();
    open_ = -1;
  }

  int open(const char* name);
  void close(int index);

  /// Per-name inclusive/self totals over every closed span so far.
  std::map<std::string, Totals> totals() const;

 private:
  struct Record {
    const char* name = "";
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  std::vector<Record> records_;
  int open_ = -1;
};

/// The process-wide tracer the workloads record into.
Tracer& tracer();

/// RAII span; a no-op (beyond one branch) when the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) {
      tracer().close(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The value of a metric whose layer the workload exercises but which
/// recorded no counter, histogram or span.  The harness refuses to print a
/// result that holds one.
inline constexpr double kNoData = std::numeric_limits<double>::quiet_NaN();

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few check failures, for stderr
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count one failed operation and keep its reason.
  void fail(const std::string& why) {
    ++failed;
    note(why);
  }
  /// Keep a failure reason without counting an operation.
  void note(const std::string& why) {
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Run `setup` at least five times and until 2 s have gone into it (at
/// most 25 times), and return the median wall seconds of one set-up.  Set-up
/// work must be idempotent: the last repetition's state is what the timed
/// loop uses.
double timed_setup(const std::function<void()>& setup);

/// Timings of one measured phase of a cycle-based workload.
struct PhaseTimes {
  std::vector<double> op_ms;  ///< one entry per operation
};

/// Run whole cycles of `cycle_len` operations until `seconds` have passed
/// and at least `min_ops` operations ran (at least one cycle).  `op(i)`
/// performs operation i of the cycle.
PhaseTimes run_cycles(double seconds, std::size_t min_ops,
                      std::size_t cycle_len,
                      const std::function<void(std::size_t)>& op);

/// 64-bit mix used to derive per-operation seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Percent change of `value` over `base`.
inline double pct_over(double value, double base) {
  return base > 0.0 ? 100.0 * (value - base) / base : 0.0;
}

}  // namespace perfbench
