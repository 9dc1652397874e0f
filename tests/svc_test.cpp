// Tests for hslb::svc -- canonical request keys (field-order and
// float-normalization invariance), the sharded LRU solve cache (eviction
// order, TTL), the in-flight coalescer (exactly one leader), and the
// allocation service end to end (cache hits byte-identical to cold solves,
// N identical concurrent requests -> one solver run, graceful shedding,
// shutdown).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/hslb/pipeline.hpp"
#include "hslb/svc/service.hpp"

namespace hslb::svc {
namespace {

using cesm::ComponentKind;
using Clock = SolveCache::Clock;

/// Handcrafted Table II curves with realistic shapes (atm dominates, ocean
/// second, ice/land small) -- fast to solve, no gather/fit needed.
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

/// A deliberately heavy request (big unconstrained slice) used to occupy a
/// single worker while identical requests pile up behind it.
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

// --- Canonical keys. --------------------------------------------------------

TEST(CanonicalKey, SampleOrderDoesNotMatter) {
  AllocationRequest a;
  a.total_nodes = 128;
  a.samples = {{ComponentKind::kAtm, 128, 100.0},
               {ComponentKind::kOcn, 64, 50.0},
               {ComponentKind::kAtm, 256, 60.0},
               {ComponentKind::kIce, 32, 10.0}};
  AllocationRequest b = a;
  std::mt19937 rng(7);
  for (int round = 0; round < 8; ++round) {
    std::shuffle(b.samples.begin(), b.samples.end(), rng);
    EXPECT_EQ(canonical_key(a), canonical_key(b));
  }
}

TEST(CanonicalKey, FitInsertionOrderDoesNotMatter) {
  AllocationRequest a = reference_request();
  AllocationRequest b;
  b.case_name = a.case_name;
  b.total_nodes = a.total_nodes;
  // Insert in reverse component order; std::map canonicalizes iteration.
  const auto fits = reference_fits();
  for (auto it = fits.rbegin(); it != fits.rend(); ++it) {
    b.fits[it->first] = it->second;
  }
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

TEST(CanonicalKey, FloatNormalization) {
  EXPECT_EQ(canonical_double(0.0), canonical_double(-0.0));
  EXPECT_EQ(canonical_double(0.5), "0.5");
  EXPECT_EQ(canonical_double(1.0), "1");
  // Distinct doubles stay distinct (round-trip formatting).
  EXPECT_NE(canonical_double(0.1), canonical_double(0.1 + 1e-17));
  AllocationRequest a = reference_request();
  a.tsync = 0.0;
  AllocationRequest b = reference_request();
  b.tsync = -0.0;
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

TEST(CanonicalKey, SolverBudgetIsPartOfTheKey) {
  AllocationRequest a = reference_request();
  AllocationRequest b = reference_request();
  b.max_wall_seconds = 30.0;
  EXPECT_NE(canonical_key(a), canonical_key(b));
  // ...but the queue deadline is serving QoS, not part of the question.
  AllocationRequest c = reference_request();
  c.deadline_seconds = 5.0;
  EXPECT_EQ(canonical_key(a), canonical_key(c));
}

TEST(CanonicalKey, FitsMaskSamplesAndFitOptions) {
  AllocationRequest a = reference_request();
  AllocationRequest b = reference_request();
  b.samples = {{ComponentKind::kAtm, 128, 100.0}};
  b.fit_options.robust_loss = true;
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

// --- Cache. -----------------------------------------------------------------

TEST(SolveCache, HitRefreshesLruOrder) {
  SolveCache cache(CacheConfig{/*capacity=*/2, /*shards=*/1, 0.0});
  const Clock::time_point t0 = Clock::now();
  cache.put("a", make_response(1), t0);
  cache.put("b", make_response(2), t0);
  ASSERT_TRUE(cache.get("a", t0).has_value());  // a becomes most recent
  cache.put("c", make_response(3), t0);         // evicts b, the LRU tail
  EXPECT_FALSE(cache.get("b", t0).has_value());
  ASSERT_TRUE(cache.get("a", t0).has_value());
  EXPECT_EQ(cache.get("a", t0)->allocation.nodes.at(ComponentKind::kAtm), 1);
  EXPECT_TRUE(cache.get("c", t0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SolveCache, TtlExpiresEntries) {
  SolveCache cache(CacheConfig{8, 1, /*ttl_seconds=*/10.0});
  const Clock::time_point t0 = Clock::now();
  cache.put("k", make_response(4), t0);
  EXPECT_TRUE(cache.get("k", t0 + std::chrono::seconds(5)).has_value());
  EXPECT_FALSE(cache.get("k", t0 + std::chrono::seconds(11)).has_value());
  EXPECT_EQ(cache.stats().expirations, 1);
  EXPECT_EQ(cache.size(), 0u);
  // Re-insertion restarts the clock.
  cache.put("k", make_response(4), t0 + std::chrono::seconds(12));
  EXPECT_TRUE(cache.get("k", t0 + std::chrono::seconds(20)).has_value());
}

TEST(SolveCache, OverwriteRefreshesValueAndInsertionTime) {
  SolveCache cache(CacheConfig{8, 1, /*ttl_seconds=*/10.0});
  const Clock::time_point t0 = Clock::now();
  cache.put("k", make_response(1), t0);
  cache.put("k", make_response(2), t0 + std::chrono::seconds(8));
  const auto hit = cache.get("k", t0 + std::chrono::seconds(15));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->allocation.nodes.at(ComponentKind::kAtm), 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, MetricsFlowIntoRegistry) {
  obs::Registry registry;
  SolveCache cache(CacheConfig{1, 1, 0.0}, &registry);
  const Clock::time_point t0 = Clock::now();
  cache.get("missing", t0);
  cache.put("a", make_response(1), t0);
  cache.get("a", t0);
  cache.put("b", make_response(2), t0);  // capacity 1: evicts a
  EXPECT_DOUBLE_EQ(registry.counter("svc.cache.hits").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.counter("svc.cache.misses").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.counter("svc.cache.evictions").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("svc.cache.size").value(), 1.0);
}

// --- Coalescer. -------------------------------------------------------------

TEST(Coalescer, ExactlyOneLeaderUnderConcurrency) {
  Coalescer coalescer;
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::vector<ResponseFuture> futures(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        Coalescer::Join join = coalescer.join("hot-key");
        if (join.leader) {
          leaders.fetch_add(1);
        }
        futures[static_cast<std::size_t>(i)] = join.slot->future;
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(coalescer.in_flight(), 1u);

  coalescer.complete("hot-key", SolveOutcome(make_response(42)));
  for (const ResponseFuture& future : futures) {
    const SolveOutcome& outcome = future.get();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome.value().allocation.nodes.at(ComponentKind::kAtm), 42);
  }
  EXPECT_EQ(coalescer.in_flight(), 0u);

  // The key is retired: the next join starts a fresh flight.
  EXPECT_TRUE(coalescer.join("hot-key").leader);
}

// --- Service. ---------------------------------------------------------------

ServiceConfig small_service(int workers, std::size_t queue_capacity = 64) {
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = queue_capacity;
  return config;
}

TEST(Service, SolveMatchesDirectPipelineByteForByte) {
  AllocationService service(small_service(2));
  const AllocationRequest request = reference_request();

  const SolveOutcome outcome = service.solve(request);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome.value().solver_status, minlp::MinlpStatus::kOptimal);

  // The same question answered without the service.
  core::PipelineConfig config;
  config.case_config = cesm::one_degree_case();
  config.total_nodes = request.total_nodes;
  const core::HslbResult direct =
      core::run_hslb_from_fits(config, request.fits);

  AllocationResponse reference;
  reference.allocation = direct.allocation;
  reference.tsync_used = direct.tsync_used;
  reference.solver_status = direct.solver_result.status;
  reference.nodes_explored = direct.solver_result.stats.nodes_explored;
  reference.degraded = direct.degraded;
  EXPECT_EQ(to_json(outcome.value()), to_json(reference));
}

TEST(Service, CacheHitIsByteIdenticalToColdSolve) {
  AllocationService service(small_service(2));
  const AllocationRequest request = reference_request();

  const AllocationService::Ticket cold = service.submit(request);
  const SolveOutcome cold_outcome = cold.future.get();
  ASSERT_TRUE(cold_outcome.has_value());
  EXPECT_FALSE(cold.cache_hit);

  const AllocationService::Ticket warm = service.submit(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.key, cold.key);
  const SolveOutcome warm_outcome = warm.future.get();
  ASSERT_TRUE(warm_outcome.has_value());
  EXPECT_EQ(to_json(warm_outcome.value()), to_json(cold_outcome.value()));
  EXPECT_EQ(service.stats().solved, 1);
  EXPECT_EQ(service.stats().cache_hits, 1);
}

TEST(Service, SolvesFromSamplesViaFitPath) {
  // Several distinct samples-only requests in flight at once on four
  // workers: each worker fits its own series (the fitter keeps per-thread
  // scratch), and every answer must equal a serial run of the same request.
  // Samples come off the reference curves, scaled per request so no two
  // requests share a fit or a cache key.
  constexpr int kRequests = 8;
  std::vector<AllocationRequest> requests;
  for (int r = 0; r < kRequests; ++r) {
    AllocationRequest request;
    request.case_name = "1deg";
    request.total_nodes = 96 + 32 * r;
    const double scale = 1.0 + 0.05 * r;
    for (const auto& [kind, model] : reference_fits()) {
      for (const int n : {32, 64, 128, 256, 512}) {
        request.samples.push_back(cesm::BenchmarkSample{
            kind, n, scale * model(static_cast<double>(n))});
      }
    }
    requests.push_back(std::move(request));
  }

  AllocationService service(small_service(4));
  std::vector<AllocationService::Ticket> tickets;
  for (const AllocationRequest& request : requests) {
    tickets.push_back(service.submit(request));
  }

  for (int r = 0; r < kRequests; ++r) {
    SCOPED_TRACE(::testing::Message() << "request " << r);
    EXPECT_FALSE(tickets[r].cache_hit);
    EXPECT_FALSE(tickets[r].coalesced);
    const SolveOutcome& outcome = tickets[r].future.get();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome.value().solver_status, minlp::MinlpStatus::kOptimal);
    EXPECT_GT(outcome.value().allocation.predicted_total, 0.0);

    core::PipelineConfig config;
    config.case_config = cesm::one_degree_case();
    config.total_nodes = requests[r].total_nodes;
    const core::HslbResult direct =
        core::run_hslb_from_samples(config, requests[r].samples);
    EXPECT_EQ(outcome.value().allocation.nodes, direct.allocation.nodes);
    EXPECT_EQ(outcome.value().allocation.predicted_total,
              direct.allocation.predicted_total);
  }
  EXPECT_EQ(service.stats().solved, kRequests);
}

TEST(Service, IdenticalConcurrentRequestsRunTheSolverOnce) {
  // One worker, busy on a heavy blocker: every identical request submitted
  // meanwhile piles onto one coalescer slot and the solver runs once.
  AllocationService service(small_service(1));
  const AllocationService::Ticket blocker =
      service.submit(blocker_request());

  const AllocationRequest request = reference_request();
  constexpr int kIdentical = 6;
  std::vector<AllocationService::Ticket> tickets;
  for (int i = 0; i < kIdentical; ++i) {
    tickets.push_back(service.submit(request));
  }

  int leaders = 0;
  for (const AllocationService::Ticket& ticket : tickets) {
    if (!ticket.coalesced && !ticket.cache_hit) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1);

  const std::string expected = to_json(tickets.front().future.get().value());
  for (const AllocationService::Ticket& ticket : tickets) {
    const SolveOutcome& outcome = ticket.future.get();
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(to_json(outcome.value()), expected);
  }
  ASSERT_TRUE(blocker.future.get().has_value());
  // Exactly two solver executions: the blocker and one leader.
  EXPECT_EQ(service.stats().solved, 2);
  EXPECT_EQ(service.stats().coalesced, kIdentical - 1);
}

TEST(Service, FullQueueShedsWithTypedError) {
  ServiceConfig config = small_service(1, /*queue_capacity=*/1);
  AllocationService service(config);
  // Occupy the worker, then wait until it has dequeued the blocker.
  const AllocationService::Ticket blocker =
      service.submit(blocker_request());
  while (service.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const AllocationService::Ticket queued =
      service.submit(reference_request(96));
  const AllocationService::Ticket shed =
      service.submit(reference_request(160));
  const SolveOutcome& outcome = shed.future.get();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kQueueFull);
  EXPECT_EQ(service.stats().shed_queue_full, 1);
  ASSERT_TRUE(queued.future.get().has_value());
  ASSERT_TRUE(blocker.future.get().has_value());
}

TEST(Service, ExpiredDeadlineShedsBeforeSolving) {
  AllocationService service(small_service(1));
  const AllocationService::Ticket blocker =
      service.submit(blocker_request());
  AllocationRequest request = reference_request();
  request.deadline_seconds = 1e-9;  // expires while queued behind the blocker
  const SolveOutcome outcome = service.solve(request);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().shed_deadline, 1);
  ASSERT_TRUE(blocker.future.get().has_value());
}

TEST(Service, ValidationErrorsResolveImmediately) {
  AllocationService service(small_service(1));

  AllocationRequest unknown = reference_request();
  unknown.case_name = "no-such-case";
  const SolveOutcome unknown_outcome = service.solve(unknown);
  ASSERT_FALSE(unknown_outcome.has_value());
  EXPECT_EQ(unknown_outcome.error().code, ErrorCode::kUnknownCase);

  AllocationRequest empty;
  empty.total_nodes = 128;
  const SolveOutcome empty_outcome = service.solve(empty);
  ASSERT_FALSE(empty_outcome.has_value());
  EXPECT_EQ(empty_outcome.error().code, ErrorCode::kBadRequest);

  AllocationRequest tiny = reference_request(/*total_nodes=*/4);
  const SolveOutcome tiny_outcome = service.solve(tiny);
  ASSERT_FALSE(tiny_outcome.has_value());
  EXPECT_EQ(tiny_outcome.error().code, ErrorCode::kBadRequest);
  EXPECT_EQ(service.stats().solved, 0);
}

TEST(Service, RegisteredCustomCaseIsServed) {
  AllocationService service(small_service(1));
  service.register_case(
      "scaled", cesm::scaled_hardware_case(cesm::one_degree_case(),
                                           "scaled", 2.0, 4096, 8));
  AllocationRequest request = reference_request();
  request.case_name = "scaled";
  const SolveOutcome outcome = service.solve(request);
  ASSERT_TRUE(outcome.has_value());
}

TEST(Service, ShutdownResolvesQueuedRequests) {
  auto service = std::make_unique<AllocationService>(small_service(1));
  const AllocationService::Ticket blocker =
      service->submit(blocker_request());
  std::vector<AllocationService::Ticket> queued;
  for (const int n : {64, 96, 160, 192}) {
    queued.push_back(service->submit(reference_request(n)));
  }
  service->shutdown();
  for (const AllocationService::Ticket& ticket : queued) {
    const SolveOutcome& outcome = ticket.future.get();
    if (!outcome.has_value()) {
      EXPECT_EQ(outcome.error().code, ErrorCode::kShutdown);
    }
  }
  // Submitting after shutdown fails cleanly too.
  const SolveOutcome late = service->solve(reference_request());
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error().code, ErrorCode::kShutdown);
}

TEST(Service, AttemptTableStaysEmptyWithoutChaos) {
  // The per-key attempt table only feeds chaos replay.  With chaos off, a
  // stream of distinct cold keys must leave it empty (a long-running server
  // would otherwise keep one entry per key forever); with chaos on, it
  // tracks every solved key.
  constexpr int kKeys = 36;
  const auto attempt_keys = [&](const ChaosSpec& chaos) {
    ServiceConfig config = small_service(2);
    config.chaos = chaos;
    AllocationService service(config);
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE(service.solve(reference_request(64 + 4 * k)).has_value());
    }
    EXPECT_EQ(service.stats().solved, kKeys);
    return service.stats().attempt_keys;
  };
  EXPECT_EQ(attempt_keys(ChaosSpec{}), 0);
  ChaosSpec armed;  // enabled, but every attempt sits in the exempt prefix
  armed.solve_exception_prob = 0.5;
  armed.exempt_first_attempts = 1 << 20;
  EXPECT_EQ(attempt_keys(armed), kKeys);
}

TEST(Service, ConcurrentMixedLoadIsConsistent) {
  // 4 workers x 6 client threads hammering 6 distinct questions: every
  // future resolves, per-key answers are identical, and the solver never
  // runs more than once per distinct key (cache + coalescing).
  ServiceConfig config = small_service(4, /*queue_capacity=*/256);
  obs::Registry registry;
  config.obs.metrics = &registry;
  AllocationService service(config);

  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  const std::vector<int> sizes = {64, 96, 128, 160, 192, 256};
  std::vector<std::vector<std::string>> seen(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937 rng(static_cast<unsigned>(c) + 1);
        for (int i = 0; i < kPerClient; ++i) {
          const int total =
              sizes[rng() % sizes.size()];
          const SolveOutcome outcome =
              service.solve(reference_request(total));
          ASSERT_TRUE(outcome.has_value());
          seen[static_cast<std::size_t>(c)].push_back(
              std::to_string(total) + "=>" + to_json(outcome.value()));
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }

  std::map<std::string, std::string> answer_by_size;
  for (const std::vector<std::string>& rows : seen) {
    for (const std::string& row : rows) {
      const std::string size = row.substr(0, row.find("=>"));
      const std::string answer = row.substr(row.find("=>") + 2);
      const auto [it, inserted] = answer_by_size.emplace(size, answer);
      EXPECT_EQ(it->second, answer) << "divergent answer for N=" << size;
    }
  }
  EXPECT_LE(service.stats().solved, static_cast<long long>(sizes.size()));
  EXPECT_EQ(service.stats().submitted, kClients * kPerClient);
  EXPECT_GT(registry.counter("svc.cache.hits").value(), 0.0);
}

}  // namespace
}  // namespace hslb::svc
