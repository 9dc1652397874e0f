// End-to-end request telemetry: the allocation service's span tree
// (request -> phases -> nested solver epochs), the Prometheus exposition
// render/parse round trip, the live scrape endpoint, and the trace
// analyzer's phase attribution -- the chain the hslb_trace tool and the
// svc_throughput bench rely on.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/obs/attribution.hpp"
#include "hslb/obs/exposition.hpp"
#include "hslb/svc/service.hpp"

namespace hslb::obs {
namespace {

std::map<cesm::ComponentKind, perf::PerfModel> reference_fits() {
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

svc::AllocationRequest reference_request(int total_nodes) {
  svc::AllocationRequest request;
  request.total_nodes = total_nodes;
  request.fits = reference_fits();
  return request;
}

/// Run `distinct` cold solves (plus one repeat for a cache hit) against a
/// traced 2-worker service and return the trace + registry.
void run_traced_load(TraceSession* trace, Registry* registry, int distinct) {
  svc::ServiceConfig config;
  config.workers = 2;
  config.obs.trace = trace;
  config.obs.metrics = registry;
  svc::AllocationService service(config);
  for (int i = 0; i < distinct; ++i) {
    const svc::SolveOutcome outcome =
        service.solve(reference_request(64 + 16 * i));
    ASSERT_TRUE(outcome.has_value());
  }
  const svc::SolveOutcome repeat = service.solve(reference_request(64));
  ASSERT_TRUE(repeat.has_value());
}

// --- Service span tree. -----------------------------------------------------

TEST(Telemetry, ServiceEmitsOneRequestSpanPerRequest) {
  TraceSession trace;
  Registry registry;
  run_traced_load(&trace, &registry, 4);

  int request_spans = 0;
  int queue_phases = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.name == "svc.request") {
      ++request_spans;
      EXPECT_NE(e.id, 0u);
      EXPECT_EQ(e.parent, 0u);  // requests are roots
    } else if (e.name == "svc.phase.queue") {
      ++queue_phases;
      EXPECT_NE(e.parent, 0u);
    }
  }
  EXPECT_EQ(request_spans, 5);  // 4 cold + 1 cache hit
  EXPECT_EQ(queue_phases, 4);   // the cache hit never queued
}

TEST(Telemetry, SolverEpochsNestUnderOwningRequest) {
  TraceSession trace;
  Registry registry;
  run_traced_load(&trace, &registry, 2);

  const std::vector<TraceEvent> events = trace.events();
  std::unordered_map<std::uint64_t, const TraceEvent*> by_id;
  for (const TraceEvent& e : events) {
    if (e.id != 0) {
      by_id[e.id] = &e;
    }
  }
  // Every minlp.epoch span -- recorded on solver worker-pool threads --
  // must chain up to an svc.request root through parent links.
  int epochs = 0;
  for (const TraceEvent& e : events) {
    if (e.name != "minlp.epoch") {
      continue;
    }
    ++epochs;
    const TraceEvent* cursor = &e;
    bool reached_request = false;
    for (int hops = 0; hops < 32 && cursor->parent != 0; ++hops) {
      const auto it = by_id.find(cursor->parent);
      ASSERT_NE(it, by_id.end()) << "dangling parent id " << cursor->parent;
      cursor = it->second;
      if (cursor->name == "svc.request") {
        reached_request = true;
        break;
      }
    }
    EXPECT_TRUE(reached_request) << "epoch span floats outside any request";
  }
  EXPECT_GT(epochs, 0);
}

TEST(Telemetry, PhaseHistogramsPreRegisteredAndPopulated) {
  Registry registry;
  {
    svc::ServiceConfig config;
    config.workers = 1;
    config.obs.metrics = &registry;
    const svc::AllocationService service(config);
    // Schema-stable before any traffic: all phase histograms exist at 0.
    const MetricsSnapshot empty = registry.snapshot();
    for (const char* name :
         {"svc.admission.ms", "svc.queue.ms", "svc.cache.lookup.ms",
          "svc.coalesce.wait.ms", "svc.request.ms", "svc.solve.ms"}) {
      const MetricsSnapshot::HistogramRow* row = empty.find_histogram(name);
      ASSERT_NE(row, nullptr) << name;
      EXPECT_EQ(row->count, 0) << name;
    }
    EXPECT_DOUBLE_EQ(empty.gauge_value("svc.workers", -1.0), 1.0);
  }

  TraceSession trace;
  run_traced_load(&trace, &registry, 3);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find_histogram("svc.request.ms")->count, 4);
  EXPECT_EQ(snap.find_histogram("svc.queue.ms")->count, 3);
  EXPECT_GE(snap.find_histogram("svc.cache.lookup.ms")->count, 4);
}

// --- Exposition round trip. -------------------------------------------------

TEST(Exposition, RenderParseRoundTrip) {
  Registry registry;
  registry.counter("svc.requests").add(7.0);
  registry.gauge("svc.workers").set(4.0);
  Histogram& h = registry.histogram("svc.request.ms", {1.0, 2.0, 5.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);  // overflow
  registry.histogram("svc.queue.ms", {1.0, 2.0});  // zero observations

  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE hslb_svc_requests counter"), std::string::npos);
  EXPECT_NE(text.find("hslb_svc_request_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  // Zero-observation histograms still render their full ladder (satellite
  // guarantee: scrapes are schema-stable from the first request on).
  EXPECT_NE(text.find("hslb_svc_queue_ms_count 0"), std::string::npos);
  EXPECT_NE(text.find("hslb_svc_queue_ms_bucket{le=\"+Inf\"} 0"),
            std::string::npos);

  const auto parsed = parse_prometheus(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_DOUBLE_EQ(parsed->counter_value("svc.requests"), 7.0);
  EXPECT_DOUBLE_EQ(parsed->gauge_value("svc.workers"), 4.0);
  const MetricsSnapshot::HistogramRow* row =
      parsed->find_histogram("svc.request.ms");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 3);
  EXPECT_EQ(row->bounds, (std::vector<double>{1.0, 2.0, 5.0}));
  EXPECT_EQ(row->buckets, (std::vector<long long>{1, 1, 0, 1}));
  EXPECT_DOUBLE_EQ(row->sum, 11.0);
  const MetricsSnapshot::HistogramRow* empty =
      parsed->find_histogram("svc.queue.ms");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->count, 0);
}

TEST(Exposition, ServerServesLiveSnapshot) {
  Registry registry;
  registry.counter("svc.requests").add(3.0);
  ExpositionServer server(&registry, 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("hslb_svc_requests 3"), std::string::npos);
  server.stop();
}

// A multi-KB scrape pulled through a deliberately tiny client receive
// buffer by a slow reader: the server's send() cannot take the payload in
// one piece, so this regresses the partial-send handling in write_all (a
// short send must resume at the first unsent byte, not drop the tail).
TEST(Exposition, ServerDeliversLargePayloadThroughSmallSocketBuffers) {
  Registry registry;
  for (int i = 0; i < 300; ++i) {
    Histogram& h = registry.histogram(
        "svc.shard" + std::to_string(i) + ".ms", {1.0, 2.0, 5.0, 10.0, 50.0});
    h.observe(static_cast<double>(i % 7));
  }
  const std::string expected_body = render_prometheus(registry.snapshot());
  ASSERT_GT(expected_body.size(), 16u * 1024u);  // genuinely multi-KB

  ExpositionServer server(&registry, 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Shrink the client's receive window before connecting so the kernel
  // cannot swallow the whole response up front.
  const int tiny = 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[512];  // read in sips to keep the server blocked on send()
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);

  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_EQ(body, expected_body);  // byte-complete: no dropped tail
  const auto parsed = parse_prometheus(body);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed->histograms.size(), 300u);
  server.stop();
}

// --- Attribution. -----------------------------------------------------------

TEST(Attribution, ChromeTraceRoundTripPreservesSpans) {
  TraceSession trace;
  Registry registry;
  run_traced_load(&trace, &registry, 2);
  const std::vector<TraceEvent> live = trace.events();
  const auto parsed = parse_chrome_trace(trace.to_chrome_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  ASSERT_EQ(parsed->size(), live.size());
  const Attribution from_live = attribute_phases(live, 2.0);
  const Attribution from_file = attribute_phases(*parsed, 2.0);
  ASSERT_EQ(from_live.requests.size(), from_file.requests.size());
  EXPECT_EQ(from_live.dominant_p99_phase, from_file.dominant_p99_phase);
  for (std::size_t i = 0; i < from_live.requests.size(); ++i) {
    EXPECT_EQ(from_live.requests[i].span, from_file.requests[i].span);
    EXPECT_NEAR(from_live.requests[i].total_ms,
                from_file.requests[i].total_ms, 1e-3);
  }

  // The LP rollup hslb_trace prints survives the file round trip, and it
  // counts every solver epoch span.
  const LpEngineRollup& lp_live = from_live.lp;
  const LpEngineRollup& lp_file = from_file.lp;
  long epoch_spans = 0;
  for (const TraceEvent& e : live) {
    epoch_spans += e.name == "minlp.epoch" ? 1 : 0;
  }
  EXPECT_GT(lp_live.epochs, 0);
  EXPECT_EQ(lp_live.epochs, epoch_spans);
  EXPECT_EQ(lp_file.epochs, lp_live.epochs);
  EXPECT_EQ(lp_file.eta_updates, lp_live.eta_updates);
  EXPECT_EQ(lp_file.refactorizations, lp_live.refactorizations);
  EXPECT_NEAR(lp_file.lp_ms, lp_live.lp_ms, 1e-3);
  EXPECT_NEAR(lp_file.factor_ms, lp_live.factor_ms, 1e-3);
  EXPECT_NEAR(lp_file.update_ms, lp_live.update_ms, 1e-3);
  EXPECT_NEAR(lp_file.pivot_ms, lp_live.pivot_ms, 1e-3);
}

TEST(Attribution, SharesSumToOneAndNameADominantPhase) {
  TraceSession trace;
  Registry registry;
  run_traced_load(&trace, &registry, 4);
  const Attribution attribution = attribute_phases(trace.events(), 2.0);
  ASSERT_EQ(attribution.requests.size(), 5u);
  ASSERT_EQ(attribution.percentiles.size(), 3u);
  for (const PercentileAttribution& pa : attribution.percentiles) {
    double sum = 0.0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      EXPECT_GE(pa.share[p], 0.0);
      sum += pa.share[p];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(pa.latency_ms, 0.0);
  }
  // Cold MINLP solves dominate these requests; whichever solve sub-phase
  // wins, the verdict must name a real phase and the solver must show up.
  EXPECT_NE(attribution.dominant_p99_phase, "none");
  EXPECT_NE(attribution.dominant_p99_phase, "");
  const PercentileAttribution& p99 = attribution.percentiles.back();
  EXPECT_GT(p99.share[static_cast<std::size_t>(Phase::kSolveLp)] +
                p99.share[static_cast<std::size_t>(Phase::kSolveOther)],
            0.25);
  EXPECT_FALSE(attribution.verdict.empty());
  // Queueing check sized by the worker gauge the caller passes in.
  EXPECT_DOUBLE_EQ(attribution.queueing.workers, 2.0);
  EXPECT_GT(attribution.queueing.arrival_rate_hz, 0.0);
  EXPECT_FALSE(attribution.queueing.verdict.empty());
}

TEST(Attribution, JsonFormIsWellFormed) {
  TraceSession trace;
  Registry registry;
  run_traced_load(&trace, &registry, 2);
  const Attribution attribution = attribute_phases(trace.events(), 2.0);
  const report::Json json = attribution_json(attribution);
  const auto reparsed = report::parse_json(json.dump(1));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->at("requests").as_number(), 3.0);
  EXPECT_FALSE(reparsed->at("dominant_p99_phase").as_string().empty());
  EXPECT_EQ(reparsed->at("percentiles").size(), 3u);
  std::vector<std::string> lp_keys;
  for (const auto& [key, value] : reparsed->at("lp_engine").items()) {
    lp_keys.push_back(key);
  }
  EXPECT_EQ(lp_keys,
            (std::vector<std::string>{"epochs", "lp_ms", "factor_ms",
                                      "update_ms", "pivot_ms", "eta_updates",
                                      "refactorizations"}));
}

}  // namespace
}  // namespace hslb::obs
