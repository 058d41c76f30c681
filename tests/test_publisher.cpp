#include "obs/publisher.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/registry.h"
#include "util/thread_pool.h"

namespace mdmesh {
namespace {

std::string TempPath(const char* stem) {
  std::ostringstream os;
  os << "/tmp/" << stem << "_" << ::getpid() << ".json";
  return os.str();
}

/// Minimal blocking HTTP client: one GET, reads until the peer closes
/// (the publisher always answers Connection: close).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, RendersCountersGaugesAndSummaries) {
  MetricsRegistry reg;
  reg.counter("engine.steps").Add(42);
  reg.gauge("engine.max_queue").Set(7);
  for (int i = 1; i <= 100; ++i) reg.histogram("driver.latency").Add(i);
  const std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE mdmesh_engine_steps counter"),
            std::string::npos);
  EXPECT_NE(text.find("mdmesh_engine_steps 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mdmesh_engine_max_queue gauge"),
            std::string::npos);
  EXPECT_NE(text.find("mdmesh_engine_max_queue 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mdmesh_driver_latency summary"),
            std::string::npos);
  EXPECT_NE(text.find("mdmesh_driver_latency{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mdmesh_driver_latency_count 100"), std::string::npos);
  // Dotted registry names never leak into the exposition.
  EXPECT_EQ(text.find("engine.steps"), std::string::npos);
}

TEST(PrometheusTest, EveryLineIsCommentOrSample) {
  MetricsRegistry reg;
  reg.counter("a.b").Add(1);
  reg.gauge("c-d").Set(2);
  reg.histogram("e f").Add(3);
  std::istringstream lines(reg.ToPrometheus());
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    // Sample: "name[{labels}] value" — the name must be prom-legal.
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      EXPECT_TRUE(ok) << "illegal metric-name byte in: " << line;
    }
  }
}

/// Connects to the loopback port; -1 on failure.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// ---------------------------------------------------------------------------
// Live endpoint.

TEST(PublisherTest, ServesMetricsAndStatusOverHttp) {
  MetricsRegistry reg;
  reg.counter("engine.routes").Add(3);
  MetricsPublisher pub;
  MetricsPublisher::Options opts;
  opts.registry = &reg;
  opts.port = 0;  // ephemeral: parallel test runs cannot collide
  ASSERT_TRUE(pub.Start(opts));
  ASSERT_GT(pub.port(), 0);

  const std::string metrics = HttpGet(pub.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("mdmesh_engine_routes 3"), std::string::npos);

  // The endpoint renders on demand: a counter bumped after Start shows up.
  reg.counter("engine.routes").Add(2);
  EXPECT_NE(HttpGet(pub.port(), "/metrics").find("mdmesh_engine_routes 5"),
            std::string::npos);

  const std::string status = HttpGet(pub.port(), "/status");
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  EXPECT_NE(status.find("application/json"), std::string::npos);
  EXPECT_NE(status.find("\"metrics\""), std::string::npos);

  EXPECT_NE(HttpGet(pub.port(), "/nope").find("404"), std::string::npos);
  EXPECT_GE(pub.requests_served(), 4);
  pub.Stop();
  EXPECT_FALSE(pub.running());
  pub.Stop();  // idempotent
}

TEST(PublisherTest, RequestSplitAcrossSegmentsIsServed) {
  MetricsRegistry reg;
  reg.counter("engine.routes").Add(4);
  MetricsPublisher pub;
  MetricsPublisher::Options opts;
  opts.registry = &reg;
  opts.port = 0;
  ASSERT_TRUE(pub.Start(opts));
  const int fd = ConnectLoopback(pub.port());
  ASSERT_GE(fd, 0);
  // Two sends with a pause between them: the publisher's first recv sees
  // only "GET /met" and must keep reading until the blank line.
  const std::string first = "GET /met";
  const std::string second = "rics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, first.data(), first.size(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  (void)!::send(fd, second.data(), second.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(out.find("200 OK"), std::string::npos) << out;
  EXPECT_NE(out.find("mdmesh_engine_routes 4"), std::string::npos);
  pub.Stop();
}

TEST(PublisherTest, SilentClientCannotBlockStop) {
  MetricsRegistry reg;
  MetricsPublisher pub;
  MetricsPublisher::Options opts;
  opts.registry = &reg;
  opts.port = 0;
  ASSERT_TRUE(pub.Start(opts));
  const int fd = ConnectLoopback(pub.port());
  ASSERT_GE(fd, 0);
  // Let the publisher accept the connection (it polls every 50 ms), so
  // Stop() lands while ServeOne waits on a client that never sends.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Safety net: without a read deadline Stop() would wait for the peer to
  // close; closing after 10 s turns that hang into a timing failure.
  std::atomic<bool> stopped{false};
  std::thread closer([&] {
    for (int i = 0; i < 1000 && !stopped.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::shutdown(fd, SHUT_RDWR);
  });
  const auto t0 = std::chrono::steady_clock::now();
  pub.Stop();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  stopped.store(true);
  closer.join();
  ::close(fd);
  EXPECT_FALSE(pub.running());
  EXPECT_LE(ms, MetricsPublisher::kRequestTimeoutMs + 500);
  EXPECT_EQ(pub.requests_served(), 0);
}

TEST(PublisherTest, StartFailsWithoutRegistry) {
  MetricsPublisher pub;
  MetricsPublisher::Options opts;
  EXPECT_FALSE(pub.Start(opts));
  EXPECT_FALSE(pub.running());
}

TEST(PublisherTest, WritesStatusFileAtomicallyOnCadence) {
  MetricsRegistry reg;
  reg.counter("engine.steps").Add(9);
  RunManifest manifest;
  manifest.seed = 77;
  const std::string path = TempPath("publisher_status");
  MetricsPublisher pub;
  MetricsPublisher::Options opts;
  opts.registry = &reg;
  opts.status_file = path;
  opts.interval_ms = 10;
  opts.manifest = &manifest;
  ASSERT_TRUE(pub.Start(opts));
  EXPECT_EQ(pub.port(), -1);  // no HTTP requested
  // Poll the snapshot counter instead of sleeping a fixed cadence.
  for (int i = 0; i < 200 && pub.snapshots_written() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pub.snapshots_written(), 2);
  pub.Stop();
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());  // staging file renamed away
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"metrics\""), std::string::npos);
  EXPECT_NE(body.str().find("\"manifest\""), std::string::npos);
  EXPECT_NE(body.str().find("engine.steps"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Registry under concurrent thread-pool hammering.

TEST(RegistryConcurrencyTest, ShardedCountersSurviveThreadPoolHammer) {
  MetricsRegistry reg;
  ThreadPool pool(4);
  auto& counter = reg.counter("hammer.count");
  auto& gauge = reg.gauge("hammer.peak");
  auto& hist = reg.histogram("hammer.values");
  constexpr std::int64_t kItems = 200000;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(kItems, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        counter.Add(1);
        gauge.Max(i);
        if ((i & 1023) == 0) hist.Add(i);
      }
    });
  }
  EXPECT_EQ(counter.Total(), kRounds * kItems);
  EXPECT_EQ(gauge.Value(), kItems - 1);
  const QuantileHistogram merged = hist.Merged();
  EXPECT_EQ(merged.count(), kRounds * ((kItems + 1023) / 1024));
  // The pool's lifetime dispatch counters saw every round.
  EXPECT_GE(pool.dispatches(), kRounds);
  EXPECT_EQ(pool.items_dispatched(), kRounds * kItems);
}

TEST(RegistryConcurrencyTest, ConcurrentReadersSeeConsistentSnapshots) {
  // A publisher-shaped reader (WritePrometheus/WriteJson in a loop) while
  // workers hammer the registry: no crashes, totals monotone.
  MetricsRegistry reg;
  ThreadPool pool(4);
  auto& counter = reg.counter("live.count");
  std::atomic<bool> stop{false};
  std::int64_t last_seen = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = reg.ToPrometheus();
      EXPECT_NE(text.find("mdmesh_live_count"), std::string::npos);
      const std::string json = reg.ToJson();
      EXPECT_NE(json.find("live.count"), std::string::npos);
      const std::int64_t now = counter.Total();
      EXPECT_GE(now, last_seen);
      last_seen = now;
    }
  });
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(10000, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) counter.Add(1);
    });
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter.Total(), 20 * 10000);
}

// ---------------------------------------------------------------------------
// Progress meter.

TEST(ProgressMeterTest, RateLimitsAndFormatsHeartbeat) {
  // force=false and a redirected stderr: nothing printed, but the meter
  // still formats lines internally so the cadence is testable.
  ProgressMeter meter(/*step_cap=*/1000, /*interval_ms=*/1, /*force=*/false);
  meter.Step(1, 500, 10);  // inside the first interval: no line yet
  EXPECT_EQ(meter.lines_emitted(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  meter.Step(50, 450, 10);
  ASSERT_GE(meter.lines_emitted(), 1);
  EXPECT_NE(meter.last_line().find("step 50/1000"), std::string::npos);
  EXPECT_NE(meter.last_line().find("in-flight 450"), std::string::npos);
  meter.Finish();
  EXPECT_NE(meter.last_line().find("done"), std::string::npos);
  const std::int64_t lines = meter.lines_emitted();
  meter.Step(60, 440, 10);  // after Finish: silent
  meter.Finish();           // idempotent
  EXPECT_EQ(meter.lines_emitted(), lines);
}

TEST(ProgressMeterTest, ObserverAdapterMatchesEngineSignature) {
  ProgressMeter meter(0, 1, false);
  const auto observer = meter.Observer();
  observer(1, 10, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  observer(2, 8, 2);
  EXPECT_GE(meter.lines_emitted(), 1);
  // No step cap: the line has no ETA, just the step and rate.
  EXPECT_NE(meter.last_line().find("step 2"), std::string::npos);
  EXPECT_EQ(meter.last_line().find("eta"), std::string::npos);
}

}  // namespace
}  // namespace mdmesh
