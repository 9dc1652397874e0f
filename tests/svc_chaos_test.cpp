// The service-layer chaos stack: deterministic fault draws (thread-order
// independent, replayable by seed), cache poison detection and stale
// serving, the per-case circuit breaker state machine, and the degradation
// ladder end to end -- brownout serves, hedged retries, coalesced followers
// receiving typed errors instead of hanging, and chaos-off byte-identity.
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/obs/metrics.hpp"
#include "hslb/svc/service.hpp"

namespace hslb::svc {
namespace {

using cesm::ComponentKind;
using Clock = SolveCache::Clock;

std::map<ComponentKind, perf::PerfModel> reference_fits() {
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

AllocationRequest reference_request(int total_nodes = 128) {
  AllocationRequest request;
  request.case_name = "1deg";
  request.total_nodes = total_nodes;
  request.fits = reference_fits();
  return request;
}

/// A heavy request (big unconstrained slice) that occupies a worker while
/// identical requests pile up behind it.
AllocationRequest blocker_request() {
  AllocationRequest request;
  request.case_name = "eighth";
  request.total_nodes = 32768;
  request.constrain_ocean = false;
  request.constrain_atm = false;
  request.fits = reference_fits();
  return request;
}

AllocationResponse make_response(int atm_nodes) {
  AllocationResponse response;
  response.allocation.nodes[ComponentKind::kAtm] = atm_nodes;
  response.allocation.predicted_seconds[ComponentKind::kAtm] = 1.5;
  response.allocation.predicted_total = 1.5;
  response.solver_status = minlp::MinlpStatus::kOptimal;
  return response;
}

// --- The injector: a pure function of (seed, key, attempt). -----------------

TEST(ChaosInjector, DrawsAreThreadOrderIndependent) {
  const ChaosInjector injector(ChaosSpec::uniform(0.5, 1234));
  constexpr int kKeys = 64;
  constexpr int kAttempts = 4;
  std::vector<std::uint64_t> hashes;
  for (int k = 0; k < kKeys; ++k) {
    hashes.push_back(ChaosInjector::key_hash("key-" + std::to_string(k)));
  }
  // Serial reference, forward order.
  std::vector<ChaosKind> serial;
  std::vector<bool> serial_poison;
  for (int k = 0; k < kKeys; ++k) {
    for (int a = 0; a < kAttempts; ++a) {
      serial.push_back(injector.draw_solve(hashes[static_cast<std::size_t>(k)], a));
      serial_poison.push_back(
          injector.draw_poison(hashes[static_cast<std::size_t>(k)], a));
    }
  }
  // Concurrent draws in scrambled per-thread orders must agree exactly.
  std::vector<ChaosKind> concurrent(serial.size(), ChaosKind::kNone);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int k = kKeys - 1; k >= 0; --k) {
        for (int a = 0; a < kAttempts; ++a) {
          if ((k + a) % 4 != t) {
            continue;
          }
          concurrent[static_cast<std::size_t>(k * kAttempts + a)] =
              injector.draw_solve(hashes[static_cast<std::size_t>(k)], a);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(serial, concurrent);
  // Same spec, fresh injector: the draws replay.
  const ChaosInjector replay(ChaosSpec::uniform(0.5, 1234));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const int k = static_cast<int>(i) / kAttempts;
    const int a = static_cast<int>(i) % kAttempts;
    EXPECT_EQ(replay.draw_solve(hashes[static_cast<std::size_t>(k)], a),
              serial[i]);
    EXPECT_EQ(replay.draw_poison(hashes[static_cast<std::size_t>(k)], a),
              serial_poison[i]);
  }
  // A different seed is a different fault schedule.
  const ChaosInjector reseeded(ChaosSpec::uniform(0.5, 99));
  std::size_t differing = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const int k = static_cast<int>(i) / kAttempts;
    const int a = static_cast<int>(i) % kAttempts;
    if (reseeded.draw_solve(hashes[static_cast<std::size_t>(k)], a) !=
        serial[i]) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(ChaosInjector, UniformSplitCoversEveryClassAtRoughlyTheAskedRate) {
  const double rate = 0.4;
  const ChaosSpec spec = ChaosSpec::uniform(rate, 7);
  EXPECT_TRUE(spec.enabled());
  EXPECT_NEAR(spec.solve_rate(), 0.85 * rate, 1e-12);
  const ChaosInjector injector(spec);
  std::map<ChaosKind, int> tally;
  constexpr int kDraws = 4000;
  for (int k = 0; k < kDraws; ++k) {
    std::string key = "k";
    key += std::to_string(k);
    ++tally[injector.draw_solve(ChaosInjector::key_hash(key), 0)];
  }
  // Every solve-path class fires, and the total is near the configured rate.
  EXPECT_GT(tally[ChaosKind::kSolveException], 0);
  EXPECT_GT(tally[ChaosKind::kSolveStall], 0);
  EXPECT_GT(tally[ChaosKind::kLeaderDeath], 0);
  EXPECT_GT(tally[ChaosKind::kWorkerAbort], 0);
  const double fault_share =
      1.0 - static_cast<double>(tally[ChaosKind::kNone]) / kDraws;
  EXPECT_NEAR(fault_share, spec.solve_rate(), 0.05);
}

TEST(ChaosInjector, FaultWindowScriptsFailThenRecover) {
  ChaosSpec spec;
  spec.solve_exception_prob = 1.0;
  spec.exempt_first_attempts = 2;
  spec.max_fault_attempts = 3;
  const ChaosInjector injector(spec);
  const std::uint64_t hash = ChaosInjector::key_hash("scripted");
  for (int attempt = 0; attempt < 10; ++attempt) {
    const bool in_window = attempt >= 2 && attempt < 5;
    EXPECT_EQ(injector.draw_solve(hash, attempt),
              in_window ? ChaosKind::kSolveException : ChaosKind::kNone)
        << "attempt " << attempt;
  }
  // A default spec is a guaranteed no-op.
  EXPECT_FALSE(ChaosSpec{}.enabled());
}

// --- Cache integrity: poison detection and stale serving. -------------------

TEST(ChaosCache, PoisonedEntryIsDetectedAndDroppedNotServed) {
  SolveCache cache(CacheConfig{});
  const auto now = Clock::now();
  cache.put("k", make_response(64), now);
  ASSERT_TRUE(cache.get("k", now).has_value());
  ASSERT_TRUE(cache.poison("k"));
  // The garbled bytes fail their checksum at lookup: a miss, never a serve.
  EXPECT_FALSE(cache.get("k", now).has_value());
  EXPECT_EQ(cache.stats().poison_detected, 1);
  EXPECT_EQ(cache.size(), 0u);
  // Poisoning a non-resident key is a no-op.
  EXPECT_FALSE(cache.poison("absent"));
}

TEST(ChaosCache, StaleRungServesExpiredButChecksummedEntries) {
  CacheConfig config;
  config.ttl_seconds = 10.0;
  config.keep_expired = true;
  SolveCache cache(config);
  const auto t0 = Clock::now();
  cache.put("k", make_response(96), t0);
  const auto later = t0 + std::chrono::seconds(25);
  // Fresh-path lookup reports a miss (and one expiration) but keeps the
  // entry for the ladder.
  EXPECT_FALSE(cache.get("k", later).has_value());
  EXPECT_EQ(cache.stats().expirations, 1);
  double stale_seconds = 0.0;
  const auto stale = cache.get_stale("k", later, &stale_seconds);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->allocation.nodes.at(ComponentKind::kAtm), 96);
  EXPECT_NEAR(stale_seconds, 15.0, 0.5);
  EXPECT_EQ(cache.stats().stale_hits, 1);
  // get_stale still refuses poisoned bytes.
  ASSERT_TRUE(cache.poison("k"));
  EXPECT_FALSE(cache.get_stale("k", later).has_value());
  EXPECT_EQ(cache.stats().poison_detected, 1);
}

// --- The breaker state machine. ---------------------------------------------

TEST(Breaker, TripsOpenProbesHalfOpenAndRecovers) {
  BreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.failure_ratio = 0.5;
  config.open_rejects = 3;
  config.half_open_probes = 2;
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // Failures below min_samples never trip.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record(false);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  ASSERT_TRUE(breaker.allow());
  breaker.record(false);  // 4th failure: ratio 1.0 >= 0.5, samples >= 4
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Open absorbs open_rejects attempts, then goes half-open.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(breaker.allow());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // A failed probe re-opens immediately.
  ASSERT_TRUE(breaker.allow());
  breaker.record(false);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Probe again; this time both probes succeed and the breaker closes.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(breaker.allow());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record(true);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  const BreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.opened, 2);
  EXPECT_EQ(stats.closed, 1);
  EXPECT_EQ(stats.rejected, 6);
}

TEST(Breaker, HalfOpenBoundsConcurrentProbes) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.open_rejects = 1;
  config.half_open_probes = 2;
  CircuitBreaker breaker(config);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record(false);
  }
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());  // absorbed reject -> half-open
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());
  EXPECT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.allow());  // third concurrent probe is turned away
}

// --- The ladder, end to end through the service. ----------------------------

TEST(ChaosService, HeuristicBrownoutWhenEverySolveThrows) {
  ServiceConfig config;
  config.workers = 1;
  config.chaos.solve_exception_prob = 1.0;
  AllocationService service(config);
  const SolveOutcome outcome = service.solve(reference_request(128));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->degraded);
  EXPECT_EQ(outcome->served, ServeLevel::kHeuristic);
  EXPECT_NE(outcome->fault_detail.find("chaos"), std::string::npos);
  // The brownout answer is a real allocation over the full slice.
  int total = 0;
  for (const auto& [kind, nodes] : outcome->allocation.nodes) {
    static_cast<void>(kind);
    total += nodes;
  }
  EXPECT_GT(total, 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served_heuristic, 1);
  EXPECT_EQ(stats.chaos_injected, 1);
  // Brownout answers never enter the cache.
  EXPECT_EQ(service.cache_stats().size, 0u);
}

TEST(ChaosService, StaleCacheOutranksHeuristicOnceWarm) {
  ServiceConfig config;
  config.workers = 1;
  config.cache.ttl_seconds = 1e-9;  // everything is stale immediately
  config.cache.keep_expired = true;
  config.chaos.solve_exception_prob = 1.0;
  config.chaos.exempt_first_attempts = 1;  // warm the cache cleanly first
  AllocationService service(config);
  const AllocationRequest request = reference_request(192);
  const SolveOutcome warm = service.solve(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->served, ServeLevel::kExact);
  EXPECT_FALSE(warm->degraded);
  // Second ask: the fresh lookup misses (expired), the exact attempt dies,
  // and the ladder serves the expired-but-checksummed entry.
  const SolveOutcome stale = service.solve(request);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->degraded);
  EXPECT_EQ(stale->served, ServeLevel::kStaleCache);
  // The payload matches the exact answer it is a stale copy of.
  AllocationResponse comparable = *stale;
  comparable.degraded = false;
  comparable.served = ServeLevel::kExact;
  comparable.fault_detail.clear();
  EXPECT_EQ(to_json(comparable), to_json(*warm));
  EXPECT_EQ(service.stats().served_stale, 1);
}

TEST(ChaosService, HedgedRetryRecoversARetryableDeath) {
  ServiceConfig config;
  config.workers = 1;
  config.chaos.worker_abort_prob = 1.0;
  config.chaos.max_fault_attempts = 1;  // attempt 0 dies, attempt 1 is clean
  AllocationService service(config);
  const SolveOutcome outcome = service.solve(reference_request(128));
  ASSERT_TRUE(outcome.has_value());
  // The retry rescued the exact answer: no brownout, nothing degraded.
  EXPECT_EQ(outcome->served, ServeLevel::kExact);
  EXPECT_FALSE(outcome->degraded);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.hedged_retries, 1);
  EXPECT_EQ(stats.chaos_injected, 1);
  EXPECT_EQ(stats.solved, 1);
}

TEST(ChaosService, CachePoisonIsDetectedAndReSolvedNotServed) {
  ServiceConfig config;
  config.workers = 1;
  config.chaos.cache_poison_prob = 1.0;  // every insert is garbled
  AllocationService service(config);
  const AllocationRequest request = reference_request(160);
  const SolveOutcome first = service.solve(request);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->served, ServeLevel::kExact);
  // The poisoned entry must never be served: the checksum rejects it and
  // the service re-solves to the same exact answer.
  const SolveOutcome second = service.solve(request);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->served, ServeLevel::kExact);
  EXPECT_EQ(to_json(*second), to_json(*first));
  EXPECT_GE(service.cache_stats().poison_detected, 1);
  EXPECT_EQ(service.stats().cache_hits, 0);
}

// The issue's scripted scenario: the coalescer leader dies mid-solve.
// Followers must receive the leader's typed error -- never hang -- and a
// follow-up request must re-solve successfully.
TEST(ChaosService, CoalescedFollowersGetTypedErrorWhenLeaderDies) {
  ServiceConfig config;
  config.workers = 1;
  config.ladder_enabled = false;  // surface the raw typed error
  config.hedged_retry = false;
  config.cache.ttl_seconds = 1e-9;         // answers expire immediately...
  config.cache.keep_expired = false;       // ...and are not retained
  config.chaos.leader_death_prob = 1.0;
  config.chaos.exempt_first_attempts = 1;  // attempt 0 clean (pre-warm)
  config.chaos.max_fault_attempts = 1;     // attempt 1 dies, attempt 2 clean
  AllocationService service(config);
  const AllocationRequest doomed = reference_request(224);
  // Attempt 0: establishes the per-key attempt counter cleanly.
  ASSERT_TRUE(service.solve(doomed).has_value());
  // Occupy the single worker so the doomed flight stays queued while
  // followers pile onto it.
  const AllocationService::Ticket blocker = service.submit(blocker_request());
  const AllocationService::Ticket leader = service.submit(doomed);
  EXPECT_FALSE(leader.cache_hit);
  std::vector<AllocationService::Ticket> followers;
  for (int i = 0; i < 4; ++i) {
    followers.push_back(service.submit(doomed));
  }
  // Every follower coalesced onto the queued leader.
  for (const AllocationService::Ticket& ticket : followers) {
    EXPECT_TRUE(ticket.coalesced);
  }
  // Attempt 1 is the leader's solve: the injected death fails the whole
  // flight with the typed root cause.  get() returning at all is the
  // no-hang guarantee (the suite would time out otherwise).
  const SolveOutcome led = leader.future.get();
  ASSERT_FALSE(led.has_value());
  EXPECT_EQ(led.error().code, ErrorCode::kSolveFailed);
  EXPECT_EQ(led.error().phase, "solve");
  EXPECT_NE(led.error().message.find("leader died"), std::string::npos);
  for (const AllocationService::Ticket& ticket : followers) {
    const SolveOutcome outcome = ticket.future.get();
    ASSERT_FALSE(outcome.has_value());
    EXPECT_EQ(outcome.error().code, ErrorCode::kSolveFailed);
    EXPECT_EQ(outcome.error().message, led.error().message);
  }
  ASSERT_TRUE(blocker.future.get().has_value());
  // Attempt 2 is past the fault window: the follow-up re-solves cleanly.
  const SolveOutcome retry = service.solve(doomed);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->served, ServeLevel::kExact);
}

TEST(ChaosService, BreakerTripsShedsAndRecoversByCounts) {
  ServiceConfig config;
  config.workers = 1;
  config.ladder_enabled = false;
  config.hedged_retry = false;
  config.cache.ttl_seconds = 1e-9;
  config.chaos.solve_exception_prob = 1.0;
  config.chaos.max_fault_attempts = 6;  // fail 6 solve attempts, then heal
  config.breaker.window = 8;
  config.breaker.min_samples = 4;
  config.breaker.open_rejects = 3;
  config.breaker.half_open_probes = 1;
  AllocationService service(config);
  const AllocationRequest request = reference_request(256);
  // Drive requests until the service answers again: failures trip the
  // breaker, open-state requests shed without burning solve attempts, the
  // half-open probe lands after the fault window, and the case recovers.
  int solve_failures = 0;
  int breaker_sheds = 0;
  SolveOutcome last = service.solve(request);
  for (int i = 0; i < 40 && !last.has_value(); ++i) {
    if (last.error().phase == "breaker") {
      ++breaker_sheds;
    } else if (last.error().phase == "solve") {
      ++solve_failures;
    }
    last = service.solve(request);
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->served, ServeLevel::kExact);
  EXPECT_GE(solve_failures, 4);  // enough to trip
  EXPECT_GE(breaker_sheds, 3);   // open state shed without solving
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_breaker, breaker_sheds);
  const auto breaker = service.breaker_stats("1deg");
  ASSERT_TRUE(breaker.has_value());
  EXPECT_EQ(breaker->state, BreakerState::kClosed);
  EXPECT_GE(breaker->opened, 1);
  EXPECT_GE(breaker->closed, 1);
}

// --- Adaptive admission. ----------------------------------------------------

TEST(Admission, ShedsOnlyWhenTailOutrunsBudgetAndQueueIsNonEmpty) {
  obs::Registry registry;
  AdmissionConfig config;
  config.enabled = true;
  config.headroom = 1.0;
  config.min_observations = 8;
  config.refresh_interval = 1;
  config.min_queue_depth = 1;
  AdmissionController controller(config, &registry);
  obs::Histogram& histogram = registry.histogram(
      "svc.request.ms", obs::Registry::hdr_time_bounds());
  // Below min_observations the controller never sheds.
  for (int i = 0; i < 4; ++i) {
    histogram.observe(500.0);
  }
  EXPECT_TRUE(controller.admit(0.1, 5).admit);
  for (int i = 0; i < 4; ++i) {
    histogram.observe(500.0);
  }
  // Tail (~500 ms) over budget (100 ms) with a backed-up queue: shed.
  const AdmissionDecision shed = controller.admit(0.1, 5);
  EXPECT_FALSE(shed.admit);
  EXPECT_GT(shed.p99_ms, shed.budget_ms);
  EXPECT_EQ(controller.shed_count(), 1);
  // An empty queue always admits (nothing to wait behind)...
  EXPECT_TRUE(controller.admit(0.1, 0).admit);
  // ...as does a roomy budget, or no deadline at all.
  EXPECT_TRUE(controller.admit(10.0, 5).admit);
  EXPECT_TRUE(controller.admit(0.0, 5).admit);
}

// --- Chaos off: the exact pre-chaos code path. ------------------------------

TEST(ChaosService, DisabledChaosIsByteIdenticalToLadderFreeService) {
  ServiceConfig plain;
  plain.workers = 2;
  plain.ladder_enabled = false;
  plain.breaker_enabled = false;
  plain.hedged_retry = false;
  ServiceConfig guarded;  // defaults: ladder + breaker on, chaos disabled
  guarded.workers = 2;
  AllocationService a(plain);
  AllocationService b(guarded);
  for (const int nodes : {64, 128, 256}) {
    const SolveOutcome from_a = a.solve(reference_request(nodes));
    const SolveOutcome from_b = b.solve(reference_request(nodes));
    ASSERT_TRUE(from_a.has_value());
    ASSERT_TRUE(from_b.has_value());
    EXPECT_EQ(to_json(*from_a), to_json(*from_b));
    EXPECT_FALSE(from_b->degraded);
  }
  EXPECT_EQ(b.stats().chaos_injected, 0);
  EXPECT_EQ(b.stats().served_stale, 0);
  EXPECT_EQ(b.stats().served_heuristic, 0);
}

}  // namespace
}  // namespace hslb::svc
