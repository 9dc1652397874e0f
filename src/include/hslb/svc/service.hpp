// The in-process allocation service: solve cache -> in-flight coalescer ->
// bounded worker pool -> HSLB pipeline.
//
//   submit(request)
//     |-- canonical_key(request)
//     |-- SolveCache.get ----------------- hit: ready future, no queueing
//     |-- Coalescer.join ----------------- follower: leader's future
//     |-- adaptive admission ------------- p99 over budget: kOverloaded shed
//     `-- bounded queue -> worker pool --- leader: ladder, cache, fan out
//
// Backpressure is explicit and typed: adaptive admission sheds early when
// the measured request p99 outruns the deadline budget (kOverloaded), a
// full queue sheds at submit time (kQueueFull), a request whose deadline
// expires while queued is shed when dequeued (kDeadlineExceeded), and
// shutdown resolves everything still queued (kShutdown).  Nothing aborts;
// every submitted future resolves.
//
// The solve path is a *degradation ladder*, gated per case by a circuit
// breaker:
//
//   breaker.allow -> exact solve (chaos-wrapped, one hedged retry for
//   leader-death/worker-abort faults) -> stale cache (expired but
//   checksummed, marked degraded) -> heuristic grid search (fits-based
//   requests) -> typed kSolveFailed shed carrying the root cause.
//
// Every brownout answer is flagged (AllocationResponse::served +
// fault_detail); only exact answers enter the cache.  With the default
// ChaosSpec (disabled) and healthy solves the service takes the exact
// pre-ladder code path and outputs stay byte-identical.
//
// The workers run the ordinary pipeline entry points, which are reentrant:
// all state lives in the per-call config/result, and the obs context is
// thread-local, so each worker installs the service's sinks for exactly the
// requests it runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hslb/cesm/configs.hpp"
#include "hslb/obs/obs.hpp"
#include "hslb/scen/scenario.hpp"
#include "hslb/svc/admission.hpp"
#include "hslb/svc/breaker.hpp"
#include "hslb/svc/cache.hpp"
#include "hslb/svc/chaos.hpp"
#include "hslb/svc/coalescer.hpp"
#include "hslb/svc/request.hpp"

namespace hslb::svc {

struct ServiceConfig {
  int workers = 4;
  std::size_t queue_capacity = 256;
  /// Applied when a request carries no deadline of its own; <= 0: none.
  double default_deadline_seconds = 0.0;
  CacheConfig cache;
  /// Deterministic fault injection (default: disabled, guaranteed no-op).
  ChaosSpec chaos;
  /// Per-case circuit breaker over exact-solve outcomes.  Enabled by
  /// default: a closed breaker is invisible (it only changes behaviour
  /// after repeated solve failures).
  BreakerConfig breaker;
  bool breaker_enabled = true;
  /// Brownout rungs below the exact solve (stale cache, heuristic grid
  /// search).  Enabled by default: the rungs only engage when the exact
  /// attempt failed, so healthy traffic never sees them.
  bool ladder_enabled = true;
  /// One extra exact attempt when a chaos fault killed the leader or the
  /// worker (retryable deaths, unlike solver exceptions), budgeted against
  /// the request deadline.
  bool hedged_retry = true;
  /// p99-driven admission (default: disabled -> queue-depth shedding only).
  AdmissionConfig admission;
  /// Borrowed observability sinks, installed on each worker around each
  /// solve (thread-local, so concurrent workers do not interfere).  The
  /// registry also receives the service counters (svc.requests, svc.cache.*,
  /// svc.coalesced, svc.shed.*, svc.solves) and per-solve latency
  /// histograms.  Null: service-level metrics are still tallied in stats().
  obs::Options obs;
  /// Register the two paper cases ("1deg", "eighth") at construction.
  bool register_builtin_cases = true;
};

/// Monotonic service tallies (also mirrored into the obs registry).
struct ServiceStats {
  long long submitted = 0;
  long long cache_hits = 0;
  long long coalesced = 0;   ///< follower requests (no queue entry)
  long long solved = 0;      ///< solver executions completed by workers
  long long shed_queue_full = 0;
  long long shed_deadline = 0;
  long long shed_overload = 0;    ///< adaptive admission sheds (kOverloaded)
  long long shed_breaker = 0;     ///< open-breaker rejections of the solve
  long long failed = 0;      ///< kBadRequest/kUnknownCase/kSolveFailed
  long long served_stale = 0;     ///< stale-cache brownout answers
  long long served_heuristic = 0; ///< grid-search brownout answers
  long long hedged_retries = 0;   ///< extra exact attempts after a death
  long long chaos_injected = 0;   ///< faults the chaos layer fired
  /// Keys in the per-key solve-attempt table.  The table exists only for
  /// chaos replay, so it stays empty while chaos is off.
  long long attempt_keys = 0;
};

class AllocationService {
 public:
  /// How submit() disposed of a request -- serving metadata that lives
  /// outside the response payload so cached/coalesced answers stay
  /// byte-identical to cold solves.
  struct Ticket {
    ResponseFuture future;
    std::string key;          ///< canonical request key
    long long request_id = 0; ///< per-service submission sequence number
    bool cache_hit = false;   ///< resolved immediately from the cache
    bool coalesced = false;   ///< attached to an identical in-flight request
  };

  explicit AllocationService(ServiceConfig config);
  ~AllocationService();
  AllocationService(const AllocationService&) = delete;
  AllocationService& operator=(const AllocationService&) = delete;

  /// Add (or replace) a case the catalog serves under `key`.
  void register_case(const std::string& key, cesm::CaseConfig config);

  /// Add (or replace) a scenario case, served under the scenario's name.
  /// Requests naming it solve the generalized N-component model instead of
  /// the fixed CESM layout; they need no timing data (the model lives in
  /// the catalog), and their cache keys incorporate the scenario's
  /// fingerprint so re-registering a changed scenario under the same name
  /// can never serve a stale answer.  Validates; throws InvalidArgument on
  /// a malformed scenario.
  void register_scenario(scen::Scenario scenario);

  /// The registered scenario under `name`, or null.
  std::shared_ptr<const scen::Scenario> find_scenario(
      const std::string& name) const;

  /// Enqueue a request.  Never blocks on solver work; the returned future
  /// always resolves (response, or typed error on shed/shutdown/bad input).
  Ticket submit(const AllocationRequest& request);

  /// submit() + wait: the blocking convenience wrapper.
  SolveOutcome solve(const AllocationRequest& request);

  /// Stop accepting work, resolve everything still queued with kShutdown,
  /// and join the workers.  Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  CacheStats cache_stats() const { return cache_.stats(); }
  std::size_t queue_depth() const;

  /// The named case's breaker tally (created on first solve attempt);
  /// nullopt when the case has seen no solve traffic.
  std::optional<BreakerStats> breaker_stats(const std::string& case_name) const;

 private:
  struct Job {
    std::string key;
    AllocationRequest request;
    std::shared_ptr<Coalescer::Slot> slot;
    std::chrono::steady_clock::time_point submitted;
    double deadline_seconds = 0.0;  ///< resolved (request or default); <=0 none
    // Request-telemetry context, carried across the thread hop (all zero
    // when tracing is off).  The request span opens on the submitting
    // thread and closes on the worker that resolves it; the queue phase
    // likewise spans the hop, so both are recorded as manual events from
    // these timestamps rather than as RAII spans.
    long long request_id = 0;
    std::uint64_t request_span = 0;  ///< pre-allocated svc.request span id
    double request_start_us = 0.0;   ///< submit() entry (session epoch)
    double queue_start_us = 0.0;     ///< enqueue time
    int submit_tid = 0;              ///< submitting thread's trace id
  };

  /// What the ladder produced for one dequeued job.
  struct ServeResult {
    SolveOutcome outcome;
    const char* label = "ok";  ///< close_request outcome tag
  };

  void worker_loop();
  /// The degradation ladder: breaker gate -> exact attempt (chaos-wrapped,
  /// hedged) -> stale cache -> heuristic -> typed shed.  `waited_seconds`
  /// is the queue wait already spent against the deadline.
  ServeResult serve(const Job& job, double waited_seconds);
  /// One chaos-wrapped exact attempt + optional hedged retry.
  /// `sim_stall_seconds` accumulates simulated stall time charged against
  /// the deadline budget; `last_attempt` reports the final attempt index
  /// (the poison draw's replay axis).
  SolveOutcome attempt_exact(const Job& job, double waited_seconds,
                             double* sim_stall_seconds, int* last_attempt);
  /// Grid-search brownout answer from request-supplied fits; a typed error
  /// when the request carries none (samples-only requests have no curves
  /// to search without a fit pass).
  SolveOutcome heuristic_serve(const Job& job);
  SolveOutcome execute(const Job& job);
  /// Exact solve for a scenario case: lower the scenario onto the MINLP
  /// form and run the same branch-and-bound the classic path uses.
  SolveOutcome execute_scenario(const Job& job,
                                const scen::Scenario& scenario);
  CircuitBreaker& breaker_for(const std::string& case_name);
  /// Next per-key solve-attempt index (the chaos injector's replay axis).
  int next_attempt(const std::string& key);
  void count_chaos(ChaosKind kind);
  std::shared_ptr<const cesm::CaseConfig> find_case(
      const std::string& name) const;

  /// Record a closed phase event under `request_span` (no-op sans trace).
  /// `span_id` 0 allocates a fresh id; pass a pre-allocated id for phases
  /// whose children needed the id before the phase event existed (solve).
  void record_phase(const char* name, std::uint64_t request_span,
                    double start_us, int thread_id,
                    std::uint64_t span_id = 0) const;
  /// Record the svc.request root event and observe svc.request.ms.  The
  /// histogram uses the trace-derived duration when tracing is on and
  /// `fallback_total_ms` otherwise.
  void close_request(std::uint64_t request_span, long long request_id,
                     double start_us, int thread_id, const char* outcome,
                     int followers, double fallback_total_ms) const;
  /// coalescer_.complete + close every follower's coalesce-wait phase and
  /// request span with this outcome.
  void complete_flight(const std::string& key, SolveOutcome outcome,
                       const char* outcome_label);

  ServiceConfig config_;
  SolveCache cache_;
  Coalescer coalescer_;
  std::unique_ptr<ChaosInjector> chaos_;        ///< null when chaos disabled
  std::unique_ptr<AdmissionController> admission_;  ///< null when disabled

  mutable std::mutex catalog_mutex_;
  std::map<std::string, std::shared_ptr<const cesm::CaseConfig>> catalog_;

  /// Scenario cases plus their precomputed fingerprints (mixed into cache
  /// keys at submit time).  Guarded by catalog_mutex_.
  struct ScenarioEntry {
    std::shared_ptr<const scen::Scenario> scenario;
    std::string fingerprint;
  };
  std::map<std::string, ScenarioEntry> scenario_catalog_;
  /// Entry lookup (scenario + fingerprint); nullopt when unregistered.
  std::optional<ScenarioEntry> find_scenario_entry(
      const std::string& name) const;

  mutable std::mutex breaker_mutex_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;

  mutable std::mutex attempt_mutex_;
  /// Per-key exact-solve attempt count, the chaos injector's replay axis;
  /// touched only while chaos is on.
  std::map<std::string, int> attempts_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::atomic<long long> submitted_{0};
  std::atomic<long long> cache_hits_{0};
  std::atomic<long long> coalesced_{0};
  std::atomic<long long> solved_{0};
  std::atomic<long long> shed_queue_full_{0};
  std::atomic<long long> shed_deadline_{0};
  std::atomic<long long> shed_overload_{0};
  std::atomic<long long> shed_breaker_{0};
  std::atomic<long long> failed_{0};
  std::atomic<long long> served_stale_{0};
  std::atomic<long long> served_heuristic_{0};
  std::atomic<long long> hedged_retries_{0};
  std::atomic<long long> chaos_injected_{0};
};

}  // namespace hslb::svc
