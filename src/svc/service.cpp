#include "hslb/svc/service.hpp"

#include <algorithm>
#include <utility>

#include "hslb/common/error.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/hslb/resilience.hpp"
#include "hslb/scen/build.hpp"

namespace hslb::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// An already-resolved future for answers that never touch the queue
/// (cache hits, validation failures, shutdown).
ResponseFuture ready(SolveOutcome outcome) {
  std::promise<SolveOutcome> promise;
  promise.set_value(std::move(outcome));
  return promise.get_future().share();
}

SolveOutcome fail(ErrorCode code, std::string message,
                  std::string phase = std::string()) {
  return common::make_unexpected(
      Error{code, std::move(message), std::move(phase)});
}

}  // namespace

AllocationService::AllocationService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(config_.cache, config_.obs.metrics) {
  HSLB_REQUIRE(config_.workers >= 1, "service needs at least one worker");
  HSLB_REQUIRE(config_.queue_capacity >= 1,
               "service needs a positive queue capacity");
  if (config_.chaos.enabled()) {
    chaos_ = std::make_unique<ChaosInjector>(config_.chaos);
  }
  if (obs::Registry* metrics = config_.obs.metrics) {
    // Pre-register every request-phase histogram so a scrape sees the full
    // schema (complete count=0 bucket ladders) before -- or without -- any
    // traffic exercising a phase.
    for (const char* name :
         {"svc.admission.ms", "svc.queue.ms", "svc.cache.lookup.ms",
          "svc.coalesce.wait.ms", "svc.request.ms", "svc.solve.ms"}) {
      metrics->histogram(name, obs::Registry::hdr_time_bounds());
    }
    metrics->gauge("svc.workers").set(static_cast<double>(config_.workers));
    // Ladder/breaker/chaos schema, pre-registered for the same reason.
    for (const char* name :
         {"svc.served.stale", "svc.served.heuristic", "svc.shed.breaker",
          "svc.breaker.trips", "svc.hedged_retries", "svc.chaos.injected"}) {
      metrics->counter(name);
    }
    if (config_.admission.enabled) {
      admission_ =
          std::make_unique<AdmissionController>(config_.admission, metrics);
    }
  }
  HSLB_REQUIRE(!config_.admission.enabled || admission_ != nullptr,
               "adaptive admission needs obs.metrics (its p99 source)");
  if (config_.register_builtin_cases) {
    register_case("1deg", cesm::one_degree_case());
    register_case("eighth", cesm::eighth_degree_case());
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AllocationService::~AllocationService() { shutdown(); }

void AllocationService::register_case(const std::string& key,
                                      cesm::CaseConfig config) {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  catalog_[key] =
      std::make_shared<const cesm::CaseConfig>(std::move(config));
}

std::shared_ptr<const cesm::CaseConfig> AllocationService::find_case(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  const auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second;
}

void AllocationService::register_scenario(scen::Scenario scenario) {
  scenario.validate();
  ScenarioEntry entry;
  entry.fingerprint = scen::scenario_fingerprint(scenario);
  const std::string key = scenario.name;
  entry.scenario =
      std::make_shared<const scen::Scenario>(std::move(scenario));
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  scenario_catalog_[key] = std::move(entry);
}

std::shared_ptr<const scen::Scenario> AllocationService::find_scenario(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  const auto it = scenario_catalog_.find(name);
  return it == scenario_catalog_.end() ? nullptr : it->second.scenario;
}

std::optional<AllocationService::ScenarioEntry>
AllocationService::find_scenario_entry(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(catalog_mutex_);
  const auto it = scenario_catalog_.find(name);
  if (it == scenario_catalog_.end()) {
    return std::nullopt;
  }
  return it->second;
}

AllocationService::Ticket AllocationService::submit(
    const AllocationRequest& request) {
  const long long request_id =
      submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::TraceSession* trace = config_.obs.trace;
  obs::Registry* metrics = config_.obs.metrics;
  if (metrics != nullptr) {
    metrics->counter("svc.requests").add(1.0);
  }

  // Open the request span.  Its id is allocated up front so phase events
  // can parent onto it before it is recorded; the event itself is recorded
  // by whichever thread resolves the request (close_request).
  const Clock::time_point entered = Clock::now();
  std::uint64_t request_span = 0;
  double request_start_us = 0.0;
  int submit_tid = 0;
  if (trace != nullptr) {
    request_span = trace->next_span_id();
    request_start_us = trace->now_us();
    submit_tid = trace->thread_id_for_current_thread();
  }

  Ticket ticket;
  ticket.request_id = request_id;
  ticket.key = canonical_key(request);
  // Scenario cases key on the scenario's fingerprint too: re-registering a
  // changed scenario under the same name must miss the old cache lines.
  const std::optional<ScenarioEntry> scenario_entry =
      find_scenario_entry(request.case_name);
  if (scenario_entry.has_value()) {
    ticket.key += "|scen:" + scenario_entry->fingerprint;
  }

  // Admission phase = validation; ends exactly once per request, on
  // whichever validation outcome is hit first.
  const auto admission_done = [&] {
    if (metrics != nullptr) {
      metrics->histogram("svc.admission.ms")
          .observe(ms_between(entered, Clock::now()));
    }
    record_phase("svc.phase.admission", request_span, request_start_us,
                 submit_tid);
  };
  const auto reject = [&](ErrorCode code,
                          std::string message) -> ResponseFuture {
    failed_.fetch_add(1, std::memory_order_relaxed);
    admission_done();
    close_request(request_span, request_id, request_start_us, submit_tid,
                  "rejected", 0, ms_between(entered, Clock::now()));
    return ready(fail(code, std::move(message), "admission"));
  };

  // --- Validate: typed errors resolve immediately, nothing queues.  A
  // --- scenario case carries its model in the catalog, so the timing-data
  // --- and machine-size checks of the classic path do not apply. -----------
  if (!scenario_entry.has_value()) {
    if (request.total_nodes < 8) {
      ticket.future = reject(ErrorCode::kBadRequest,
                             "total_nodes must be at least 8");
      return ticket;
    }
    if (request.fits.empty() && request.samples.empty()) {
      ticket.future = reject(
          ErrorCode::kBadRequest,
          "request carries neither benchmark samples nor fitted curves");
      return ticket;
    }
    if (!request.fits.empty()) {
      for (const cesm::ComponentKind kind : cesm::kModeledComponents) {
        if (request.fits.count(kind) == 0) {
          ticket.future =
              reject(ErrorCode::kBadRequest,
                     std::string("fits are missing component ") +
                         cesm::to_string(kind));
          return ticket;
        }
      }
    }
    if (find_case(request.case_name) == nullptr) {
      ticket.future = reject(ErrorCode::kUnknownCase,
                             "no case registered under '" +
                                 request.case_name + "'");
      return ticket;
    }
  }
  admission_done();

  // --- Cache. ---------------------------------------------------------------
  const Clock::time_point now = Clock::now();
  const double cache_start_us = trace != nullptr ? trace->now_us() : 0.0;
  std::optional<AllocationResponse> cached = cache_.get(ticket.key, now);
  if (metrics != nullptr) {
    metrics->histogram("svc.cache.lookup.ms")
        .observe(ms_between(now, Clock::now()));
  }
  record_phase("svc.phase.cache", request_span, cache_start_us, submit_tid);
  if (cached.has_value()) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    ticket.cache_hit = true;
    close_request(request_span, request_id, request_start_us, submit_tid,
                  "cache_hit", 0, ms_between(entered, Clock::now()));
    ticket.future = ready(SolveOutcome(std::move(*cached)));
    return ticket;
  }

  // --- Coalesce. ------------------------------------------------------------
  Coalescer::Follower meta;
  if (trace != nullptr) {
    meta.request_span = request_span;
    meta.request_start_us = request_start_us;
    meta.wait_start_us = trace->now_us();
    meta.thread_id = submit_tid;
    meta.request_id = request_id;
  }
  Coalescer::Join join = coalescer_.join(ticket.key, meta);
  ticket.future = join.slot->future;
  if (!join.leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter("svc.coalesced").add(1.0);
    }
    ticket.coalesced = true;
    // The coalesce-wait phase and the request span stay open until the
    // leader's flight completes (complete_flight closes them).
    return ticket;
  }

  // --- Leader: adaptive admission, then enqueue (shedding on a full queue
  // --- or a stopped service). -----------------------------------------------
  const double deadline_seconds = request.deadline_seconds > 0.0
                                      ? request.deadline_seconds
                                      : config_.default_deadline_seconds;
  if (admission_ != nullptr) {
    const AdmissionDecision decision =
        admission_->admit(deadline_seconds, queue_depth());
    if (!decision.admit) {
      shed_overload_.fetch_add(1, std::memory_order_relaxed);
      complete_flight(
          ticket.key,
          fail(ErrorCode::kOverloaded,
               "measured p99 " + std::to_string(decision.p99_ms) +
                   " ms exceeds the admission budget " +
                   std::to_string(decision.budget_ms) + " ms",
               "admission"),
          "overload");
      close_request(request_span, request_id, request_start_us, submit_tid,
                    "overload", join.slot->followers,
                    ms_between(entered, Clock::now()));
      return ticket;
    }
  }
  Job job;
  job.key = ticket.key;
  job.request = request;
  job.slot = join.slot;
  job.submitted = now;
  job.deadline_seconds = deadline_seconds;
  job.request_id = request_id;
  job.request_span = request_span;
  job.request_start_us = request_start_us;
  job.queue_start_us = trace != nullptr ? trace->now_us() : 0.0;
  job.submit_tid = submit_tid;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      lock.unlock();
      complete_flight(ticket.key,
                      fail(ErrorCode::kShutdown, "service is shutting down",
                           "queue"),
                      "shutdown");
      close_request(request_span, request_id, request_start_us, submit_tid,
                    "shutdown", join.slot->followers,
                    ms_between(entered, Clock::now()));
      return ticket;
    }
    if (queue_.size() >= config_.queue_capacity) {
      lock.unlock();
      shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->counter("svc.shed.queue_full").add(1.0);
      }
      complete_flight(
          ticket.key,
          fail(ErrorCode::kQueueFull,
               "submission queue is full (" +
                   std::to_string(config_.queue_capacity) + " pending)",
               "queue"),
          "queue_full");
      close_request(request_span, request_id, request_start_us, submit_tid,
                    "queue_full", join.slot->followers,
                    ms_between(entered, Clock::now()));
      return ticket;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return ticket;
}

SolveOutcome AllocationService::solve(const AllocationRequest& request) {
  return submit(request).future.get();
}

void AllocationService::worker_loop() {
  obs::TraceSession* trace = config_.obs.trace;
  obs::Registry* metrics = config_.obs.metrics;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    const Clock::time_point start = Clock::now();
    const int worker_tid =
        trace != nullptr ? trace->thread_id_for_current_thread() : 0;
    // The queue phase opened at enqueue time on the submitting thread and
    // closes here, on the worker that picked the job up.
    record_phase("svc.phase.queue", job.request_span, job.queue_start_us,
                 worker_tid);
    const double waited_seconds =
        std::chrono::duration<double>(start - job.submitted).count();
    if (metrics != nullptr) {
      metrics->histogram("svc.queue.ms")
          .observe(ms_between(job.submitted, start));
    }
    if (job.deadline_seconds > 0.0 && waited_seconds > job.deadline_seconds) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->counter("svc.shed.deadline").add(1.0);
      }
      complete_flight(
          job.key,
          fail(ErrorCode::kDeadlineExceeded,
               "request waited " + std::to_string(waited_seconds) +
                   " s against a " + std::to_string(job.deadline_seconds) +
                   " s deadline",
               "queue"),
          "deadline");
      close_request(job.request_span, job.request_id, job.request_start_us,
                    job.submit_tid, "deadline", job.slot->followers,
                    ms_between(job.submitted, Clock::now()));
      continue;
    }

    // A leader that queued behind an identical flight which completed in the
    // meantime finds the answer already cached: serve it without re-solving.
    const double recheck_start_us = trace != nullptr ? trace->now_us() : 0.0;
    std::optional<AllocationResponse> cached = cache_.get(job.key, start);
    if (metrics != nullptr) {
      metrics->histogram("svc.cache.lookup.ms")
          .observe(ms_between(start, Clock::now()));
    }
    record_phase("svc.phase.cache", job.request_span, recheck_start_us,
                 worker_tid);
    if (cached.has_value()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      complete_flight(job.key, SolveOutcome(std::move(*cached)),
                      "cache_hit");
      close_request(job.request_span, job.request_id, job.request_start_us,
                    job.submit_tid, "cache_hit", job.slot->followers,
                    ms_between(job.submitted, Clock::now()));
      continue;
    }

    // Solve phase: the id is allocated before the ladder runs so the
    // solver's own spans (svc.solve -> minlp.solve -> minlp.epoch) can nest
    // under it via the installed parent_span; the phase event is recorded
    // after.  The ladder (breaker gate, chaos-wrapped exact attempt, the
    // brownout rungs) all runs inside the phase.
    ServeResult served{fail(ErrorCode::kSolveFailed, "not executed", "solve"),
                       "failed"};
    {
      std::uint64_t solve_span = 0;
      double solve_start_us = 0.0;
      if (trace != nullptr && job.request_span != 0) {
        solve_span = trace->next_span_id();
        solve_start_us = trace->now_us();
      }
      obs::Options context = config_.obs;
      context.parent_span = solve_span;
      const obs::Install install(context);
      served = serve(job, waited_seconds);
      record_phase("svc.phase.solve", job.request_span, solve_start_us,
                   worker_tid, solve_span);
    }
    if (!served.outcome.has_value()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    const char* label = served.label;
    complete_flight(job.key, std::move(served.outcome), label);
    close_request(job.request_span, job.request_id, job.request_start_us,
                  job.submit_tid, label, job.slot->followers,
                  ms_between(job.submitted, Clock::now()));
  }
}

AllocationService::ServeResult AllocationService::serve(
    const Job& job, double waited_seconds) {
  obs::Registry* metrics = config_.obs.metrics;
  const Clock::time_point start = Clock::now();

  // --- Breaker gate + exact attempt. ----------------------------------------
  CircuitBreaker* breaker =
      config_.breaker_enabled ? &breaker_for(job.request.case_name) : nullptr;
  SolveOutcome outcome =
      fail(ErrorCode::kSolveFailed, "not attempted", "solve");
  double sim_stall_seconds = 0.0;
  int last_attempt = 0;
  bool attempted = false;
  if (breaker == nullptr || breaker->allow()) {
    attempted = true;
    outcome =
        attempt_exact(job, waited_seconds, &sim_stall_seconds, &last_attempt);
    if (breaker != nullptr) {
      const long long opened_before = breaker->stats().opened;
      breaker->record(outcome.has_value());
      if (metrics != nullptr && breaker->stats().opened > opened_before) {
        metrics->counter("svc.breaker.trips").add(1.0);
      }
    }
  } else {
    shed_breaker_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter("svc.shed.breaker").add(1.0);
    }
    outcome = fail(ErrorCode::kSolveFailed,
                   "circuit breaker open for case '" + job.request.case_name +
                       "' (recent solves kept failing)",
                   "breaker");
  }

  if (outcome.has_value()) {
    solved_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->counter("svc.solves").add(1.0);
      metrics->histogram("svc.solve.ms")
          .observe(ms_between(start, Clock::now()));
    }
    // Only exact answers enter the cache -- a brownout response must never
    // masquerade as a warm hit later.
    cache_.put(job.key, outcome.value(), Clock::now());
    if (chaos_ != nullptr &&
        chaos_->draw_poison(ChaosInjector::key_hash(job.key), last_attempt)) {
      count_chaos(ChaosKind::kCachePoison);
      cache_.poison(job.key);
    }
    return {std::move(outcome), "ok"};
  }
  if (attempted && metrics != nullptr) {
    metrics->counter("svc.solve_failures").add(1.0);
  }

  // --- Brownout rungs. ------------------------------------------------------
  if (config_.ladder_enabled) {
    const std::string& fault_detail = outcome.error().message;
    // Rung 2: an expired-but-checksummed cache entry, served stale.  Only
    // populated when the cache retains expired entries (keep_expired).
    std::optional<AllocationResponse> stale =
        cache_.get_stale(job.key, Clock::now());
    if (stale.has_value()) {
      stale->degraded = true;
      stale->served = ServeLevel::kStaleCache;
      stale->fault_detail = fault_detail;
      served_stale_.fetch_add(1, std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->counter("svc.served.stale").add(1.0);
      }
      return {SolveOutcome(std::move(*stale)), "stale"};
    }
    // Rung 3: direct grid search over the allowed sets (fits-based requests
    // only -- a samples-only request has no curves without a fit pass).
    SolveOutcome heuristic = heuristic_serve(job);
    if (heuristic.has_value()) {
      heuristic->fault_detail = fault_detail;
      served_heuristic_.fetch_add(1, std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->counter("svc.served.heuristic").add(1.0);
      }
      return {std::move(heuristic), "heuristic"};
    }
  }

  // --- Typed shed: the exact failure, root cause intact. --------------------
  const char* label =
      outcome.error().phase == "breaker" ? "breaker_open" : "failed";
  return {std::move(outcome), label};
}

SolveOutcome AllocationService::attempt_exact(const Job& job,
                                              double waited_seconds,
                                              double* sim_stall_seconds,
                                              int* last_attempt) {
  if (chaos_ == nullptr) {
    return execute(job);
  }
  const std::uint64_t key_hash = ChaosInjector::key_hash(job.key);
  bool hedged = false;
  for (;;) {
    const int attempt = next_attempt(job.key);
    *last_attempt = attempt;
    const ChaosKind fault = chaos_->draw_solve(key_hash, attempt);
    SolveOutcome outcome =
        fail(ErrorCode::kSolveFailed, "not attempted", "solve");
    bool retryable = false;
    switch (fault) {
      case ChaosKind::kNone:
      case ChaosKind::kCachePoison:  // draw_solve never returns this
        outcome = execute(job);
        break;
      case ChaosKind::kSolveException:
        count_chaos(fault);
        outcome = fail(ErrorCode::kSolveFailed,
                       "chaos: injected solver exception (attempt " +
                           std::to_string(attempt) + ")",
                       "solve");
        break;
      case ChaosKind::kSolveStall:
        // Simulated-clock idiom: no real sleep; the stall's seconds are
        // charged against the request's deadline budget below.
        count_chaos(fault);
        *sim_stall_seconds += chaos_->spec().stall_seconds;
        outcome = fail(ErrorCode::kSolveFailed,
                       "chaos: solver stalled " +
                           std::to_string(chaos_->spec().stall_seconds) +
                           " s (simulated) past its budget",
                       "solve");
        break;
      case ChaosKind::kLeaderDeath:
        count_chaos(fault);
        retryable = true;
        outcome = fail(ErrorCode::kSolveFailed,
                       "chaos: coalescer leader died mid-solve", "solve");
        break;
      case ChaosKind::kWorkerAbort:
        count_chaos(fault);
        retryable = true;
        outcome = fail(ErrorCode::kSolveFailed,
                       "chaos: worker thread aborted mid-solve", "solve");
        break;
    }
    if (outcome.has_value() || !retryable || hedged || !config_.hedged_retry) {
      return outcome;
    }
    // Hedged retry: one extra exact attempt for deaths (the work was lost,
    // not wrong), and only while the deadline budget -- less queue wait and
    // simulated stall time -- still has room.
    if (job.deadline_seconds > 0.0 &&
        waited_seconds + *sim_stall_seconds >= job.deadline_seconds) {
      return outcome;
    }
    hedged = true;
    hedged_retries_.fetch_add(1, std::memory_order_relaxed);
    if (config_.obs.metrics != nullptr) {
      config_.obs.metrics->counter("svc.hedged_retries").add(1.0);
    }
  }
}

SolveOutcome AllocationService::heuristic_serve(const Job& job) {
  // Scenario cases have their own ladder rung: the N-component greedy
  // allocation, valid for any corpus case (no fits required -- the curves
  // live in the catalog), so corpus traffic degrades instead of shedding.
  if (const std::shared_ptr<const scen::Scenario> scenario =
          find_scenario(job.request.case_name)) {
    try {
      const scen::ScenAllocation alloc = scen::heuristic_allocation(*scenario);
      AllocationResponse response;
      response.degraded = true;
      response.served = ServeLevel::kHeuristic;
      response.scenario_nodes = alloc.nodes;
      response.scenario_objective = alloc.objective;
      return SolveOutcome(std::move(response));
    } catch (const std::exception& e) {
      return fail(ErrorCode::kSolveFailed,
                  std::string("scenario heuristic fallback failed: ") +
                      e.what(),
                  "ladder");
    }
  }
  if (job.request.fits.empty()) {
    return fail(ErrorCode::kSolveFailed,
                "no fitted curves to grid-search (samples-only request)",
                "ladder");
  }
  const std::shared_ptr<const cesm::CaseConfig> case_config =
      find_case(job.request.case_name);
  if (case_config == nullptr) {
    return fail(ErrorCode::kUnknownCase,
                "no case registered under '" + job.request.case_name + "'",
                "ladder");
  }
  // Mirror the pipeline's spec assembly (run_hslb_from_fits + solve_step's
  // allowed-set and auto-tsync rules) so the grid search answers the same
  // question the solver would have.
  core::LayoutModelSpec spec;
  spec.layout = job.request.layout;
  spec.total_nodes = job.request.total_nodes;
  spec.objective = job.request.objective;
  spec.use_sos = job.request.use_sos;
  spec.min_nodes = case_config->min_nodes;
  for (const cesm::ComponentKind kind : cesm::kModeledComponents) {
    spec.perf[kind] = job.request.fits.at(kind);  // validated at submit
  }
  if (job.request.constrain_atm) {
    spec.atm_allowed = case_config->atm_allowed;
  }
  if (job.request.constrain_ocean) {
    spec.ocn_allowed = case_config->ocn_allowed;
  }
  double tsync = job.request.tsync;
  if (tsync < 0.0) {
    const double ref = spec.perf.at(cesm::ComponentKind::kIce)(
        std::max(1.0, job.request.total_nodes / 2.0));
    tsync = std::max(1.0, 0.25 * ref);
  }
  spec.tsync = tsync;

  AllocationResponse response;
  try {
    response.allocation = core::heuristic_allocation(spec);
  } catch (const std::exception& e) {
    return fail(ErrorCode::kSolveFailed,
                std::string("heuristic fallback failed: ") + e.what(),
                "ladder");
  }
  response.tsync_used = tsync;
  response.nodes_explored = 0;
  response.degraded = true;
  response.served = ServeLevel::kHeuristic;
  return SolveOutcome(std::move(response));
}

CircuitBreaker& AllocationService::breaker_for(const std::string& case_name) {
  const std::lock_guard<std::mutex> lock(breaker_mutex_);
  std::unique_ptr<CircuitBreaker>& slot = breakers_[case_name];
  if (slot == nullptr) {
    slot = std::make_unique<CircuitBreaker>(config_.breaker);
  }
  return *slot;
}

int AllocationService::next_attempt(const std::string& key) {
  const std::lock_guard<std::mutex> lock(attempt_mutex_);
  return attempts_[key]++;
}

void AllocationService::count_chaos(ChaosKind kind) {
  chaos_injected_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Registry* metrics = config_.obs.metrics) {
    metrics->counter("svc.chaos.injected").add(1.0);
    metrics->counter(std::string("svc.chaos.") + to_string(kind)).add(1.0);
  }
}

std::optional<BreakerStats> AllocationService::breaker_stats(
    const std::string& case_name) const {
  const std::lock_guard<std::mutex> lock(breaker_mutex_);
  const auto it = breakers_.find(case_name);
  if (it == breakers_.end()) {
    return std::nullopt;
  }
  return it->second->stats();
}

void AllocationService::record_phase(const char* name,
                                     std::uint64_t request_span,
                                     double start_us, int thread_id,
                                     std::uint64_t span_id) const {
  obs::TraceSession* trace = config_.obs.trace;
  if (trace == nullptr || request_span == 0) {
    return;
  }
  obs::TraceEvent event;
  event.name = name;
  event.category = "svc";
  event.start_us = start_us;
  event.duration_us = trace->now_us() - start_us;
  event.thread_id = thread_id;
  event.id = span_id != 0 ? span_id : trace->next_span_id();
  event.parent = request_span;
  trace->record(std::move(event));
}

void AllocationService::close_request(std::uint64_t request_span,
                                      long long request_id, double start_us,
                                      int thread_id, const char* outcome,
                                      int followers,
                                      double fallback_total_ms) const {
  obs::TraceSession* trace = config_.obs.trace;
  double total_ms = fallback_total_ms;
  if (trace != nullptr && request_span != 0) {
    obs::TraceEvent event;
    event.name = "svc.request";
    event.category = "svc";
    event.start_us = start_us;
    event.duration_us = trace->now_us() - start_us;
    total_ms = event.duration_us / 1e3;
    event.thread_id = thread_id;
    event.id = request_span;
    event.args.emplace_back("id", std::to_string(request_id));
    event.args.emplace_back("outcome", outcome);
    if (followers > 0) {
      event.args.emplace_back("followers", std::to_string(followers));
    }
    trace->record(std::move(event));
  }
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->histogram("svc.request.ms").observe(total_ms);
  }
}

void AllocationService::complete_flight(const std::string& key,
                                        SolveOutcome outcome,
                                        const char* outcome_label) {
  const std::shared_ptr<Coalescer::Slot> slot =
      coalescer_.complete(key, std::move(outcome));
  if (slot == nullptr) {
    return;
  }
  obs::TraceSession* trace = config_.obs.trace;
  if (trace == nullptr) {
    return;  // followers only carry telemetry when tracing is on
  }
  for (const Coalescer::Follower& meta : slot->follower_meta) {
    record_phase("svc.phase.coalesce", meta.request_span,
                 meta.wait_start_us, meta.thread_id);
    if (config_.obs.metrics != nullptr) {
      config_.obs.metrics->histogram("svc.coalesce.wait.ms")
          .observe((trace->now_us() - meta.wait_start_us) / 1e3);
    }
    close_request(meta.request_span, meta.request_id,
                  meta.request_start_us, meta.thread_id, outcome_label, 0,
                  (trace->now_us() - meta.request_start_us) / 1e3);
  }
}

SolveOutcome AllocationService::execute(const Job& job) {
  if (const std::shared_ptr<const scen::Scenario> scenario =
          find_scenario(job.request.case_name)) {
    return execute_scenario(job, *scenario);
  }
  const std::shared_ptr<const cesm::CaseConfig> case_config =
      find_case(job.request.case_name);
  if (case_config == nullptr) {
    return fail(ErrorCode::kUnknownCase,
                "no case registered under '" + job.request.case_name + "'",
                "solve");
  }

  // Per-call wiring only: the worker installs the service sinks around this
  // solve (thread-local), and every knob below lives in the call's own
  // config -- the reentrancy contract the pipeline documents.
  const obs::Install install(config_.obs);
  obs::ScopedSpan span("svc.solve");
  if (span.active()) {
    span.arg("case", job.request.case_name);
    span.arg("total_nodes", static_cast<long long>(job.request.total_nodes));
  }

  core::PipelineConfig config;
  config.case_config = *case_config;
  config.layout = job.request.layout;
  config.objective = job.request.objective;
  config.total_nodes = job.request.total_nodes;
  config.tsync = job.request.tsync;
  config.constrain_atm = job.request.constrain_atm;
  config.constrain_ocean = job.request.constrain_ocean;
  config.use_sos = job.request.use_sos;
  config.fit_options = job.request.fit_options;
  config.solver.max_wall_seconds = job.request.max_wall_seconds;
  config.solver.max_nodes = job.request.max_nodes;
  config.solver.threads = job.request.solver_threads;

  core::HslbResult result;
  try {
    if (!job.request.fits.empty()) {
      result = core::run_hslb_from_fits(config, job.request.fits);
    } else {
      result = core::run_hslb_from_samples(config, job.request.samples);
    }
  } catch (const std::exception& e) {
    // hslb::Error covers the library's own rejections (bad sample counts,
    // infeasible models); the broader net keeps a worker alive no matter
    // what a request provokes.
    return fail(ErrorCode::kSolveFailed, e.what(), "solve");
  }

  AllocationResponse response;
  response.allocation = result.allocation;
  response.tsync_used = result.tsync_used;
  response.solver_status = result.solver_result.status;
  response.nodes_explored = result.solver_result.stats.nodes_explored;
  response.degraded = result.degraded;
  return SolveOutcome(std::move(response));
}

SolveOutcome AllocationService::execute_scenario(
    const Job& job, const scen::Scenario& scenario) {
  const obs::Install install(config_.obs);
  obs::ScopedSpan span("svc.solve");
  if (span.active()) {
    span.arg("case", job.request.case_name);
    span.arg("components",
             static_cast<long long>(scenario.components.size()));
  }

  minlp::SolverOptions solver;
  solver.max_wall_seconds = job.request.max_wall_seconds;
  solver.max_nodes = job.request.max_nodes;
  solver.threads = job.request.solver_threads;
  solver.use_sos_branching = job.request.use_sos;

  try {
    scen::BuildOptions build_options;
    build_options.use_sos = job.request.use_sos;
    scen::ScenarioModelVars vars;
    const minlp::Model model =
        scen::build_scenario_model(scenario, &vars, build_options);
    const minlp::MinlpResult result = minlp::solve(model, solver);
    if (result.x.size() == 0) {
      return fail(ErrorCode::kSolveFailed,
                  std::string("scenario solve found no feasible point (") +
                      minlp::to_string(result.status) + ")",
                  "solve");
    }
    const scen::ScenAllocation alloc =
        extract_scenario_allocation(scenario, vars, result);
    AllocationResponse response;
    response.solver_status = result.status;
    response.nodes_explored = result.stats.nodes_explored;
    response.scenario_nodes = alloc.nodes;
    response.scenario_objective = alloc.objective;
    return SolveOutcome(std::move(response));
  } catch (const std::exception& e) {
    return fail(ErrorCode::kSolveFailed, e.what(), "solve");
  }
}

void AllocationService::shutdown() {
  std::deque<Job> drained;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && queue_.empty() && workers_.empty()) {
      return;
    }
    stopping_ = true;
    drained.swap(queue_);
  }
  queue_cv_.notify_all();
  for (Job& job : drained) {
    complete_flight(job.key,
                    fail(ErrorCode::kShutdown,
                         "service shut down before the request was served",
                         "queue"),
                    "shutdown");
    close_request(job.request_span, job.request_id, job.request_start_us,
                  job.submit_tid, "shutdown", job.slot->followers,
                  ms_between(job.submitted, Clock::now()));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

ServiceStats AllocationService::stats() const {
  ServiceStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.solved = solved_.load(std::memory_order_relaxed);
  out.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  out.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  out.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  out.shed_breaker = shed_breaker_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.served_stale = served_stale_.load(std::memory_order_relaxed);
  out.served_heuristic = served_heuristic_.load(std::memory_order_relaxed);
  out.hedged_retries = hedged_retries_.load(std::memory_order_relaxed);
  out.chaos_injected = chaos_injected_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(attempt_mutex_);
    out.attempt_keys = static_cast<long long>(attempts_.size());
  }
  return out;
}

std::size_t AllocationService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

}  // namespace hslb::svc
