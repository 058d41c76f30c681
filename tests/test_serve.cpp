// Tests for the experiment service (src/serve/): the JSON parser, RunSpec
// validation + fingerprinting, the HashEngineOptions field-sensitivity
// contract, the loopback HTTP server/client pair, the RunScheduler
// (dedup, queue bound, failure retry), and the acceptance drill — eight
// queued specs with two duplicates deduped to one execution, a drain that
// interrupts in-flight runs mid-step, and a restart that resumes every
// interrupted run with delivery hashes identical to uninterrupted
// reference runs.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/manager.h"
#include "fault/fault_plan.h"
#include "meshsim/topology.h"
#include "net/engine.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/probe.h"
#include "obs/registry.h"
#include "serve/journal.h"
#include "serve/json_value.h"
#include "serve/run_spec.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "util/http.h"
#include "util/thread_pool.h"
#include "workload/driver.h"
#include "workload/patterns.h"

namespace mdmesh {
namespace {

using testing::TempDir;

std::string FreshDir(const std::string& name) {
  const std::string dir = TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// JSON parser.

TEST(JsonValue, ParsesScalarsAndContainers) {
  const JsonParseResult r = ParseJson(
      "{\"a\": 1, \"b\": -2.5, \"c\": true, \"d\": null, "
      "\"e\": \"hi\\n\", \"f\": [1, 2, 3], \"g\": {\"x\": 7}}");
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue& v = r.value;
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v["a"].AsInt(), 1);
  EXPECT_DOUBLE_EQ(v["b"].AsDouble(), -2.5);
  EXPECT_TRUE(v["c"].AsBool());
  EXPECT_TRUE(v["d"].is_null());
  EXPECT_EQ(v["e"].AsString(), "hi\n");
  ASSERT_EQ(v["f"].size(), 3u);
  EXPECT_EQ(v["f"].At(2).AsInt(), 3);
  EXPECT_EQ(v["g"]["x"].AsInt(), 7);
}

TEST(JsonValue, IntAndDoubleInterconvert) {
  const JsonParseResult r = ParseJson("{\"i\": 3, \"d\": 0.5}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.value["i"].AsDouble(), 3.0);
  EXPECT_EQ(r.value["i"].type(), JsonValue::Type::kInt);
  EXPECT_EQ(r.value["d"].type(), JsonValue::Type::kDouble);
}

TEST(JsonValue, Uint64SeedsRoundTripLosslessly) {
  // Seeds exercise the full uint64 range; 2^64 - 1 must survive the parse.
  const JsonParseResult r = ParseJson("{\"seed\": 18446744073709551615}");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value["seed"].AsUInt(), 18446744073709551615ull);
}

TEST(JsonValue, MissingKeysChainToNull) {
  const JsonParseResult r = ParseJson("{\"a\": {\"b\": 1}}");
  ASSERT_TRUE(r.ok) << r.error;
  // No crash, no allocation of new members: a shared null at every level.
  EXPECT_TRUE(r.value["nope"]["deeper"]["still"].is_null());
  EXPECT_EQ(r.value["nope"]["deeper"].AsInt(), 0);
  EXPECT_FALSE(r.value.Has("nope"));
}

TEST(JsonValue, RejectsMalformedInputWithOffset) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "tru", "01", "1 2", "{\"a\" 1}",
        "\"unterminated", "{\"a\": NaN}", ""}) {
    const JsonParseResult r = ParseJson(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
  const JsonParseResult r = ParseJson("{\"a\": 1} trailing");
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.offset, 9u);  // the error names the trailing-garbage byte
}

TEST(JsonValue, EnforcesDepthCap) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok);          // default cap 64
  EXPECT_TRUE(ParseJson(deep, 128).ok);      // raised cap admits it
  std::string shallow = "[[[[1]]]]";
  EXPECT_TRUE(ParseJson(shallow).ok);
}

// ---------------------------------------------------------------------------
// RunSpec: round trip, validation, fingerprint.

RunSpec BaseSpec() {
  RunSpec s;
  s.d = 2;
  s.n = 8;
  s.pattern = PatternKind::kUniform;
  s.pattern_seed = 7;
  s.driver.rate = 0.1;
  s.driver.warmup_steps = 16;
  s.driver.measure_steps = 64;
  s.driver.drain = true;
  s.driver.seed = 9;
  return s;
}

TEST(RunSpec, JsonRoundTripPreservesFingerprint) {
  RunSpec s = BaseSpec();
  s.name = "round-trip";
  s.priority = 3;
  s.torus = true;
  s.pattern = PatternKind::kHotSpot;
  s.pattern_opts.hot_count = 2;
  s.pattern_opts.hot_skew = 0.75;
  s.step_cap = 123;
  s.stall_window = -1;
  s.sparse = SparseMode::kNever;
  s.sparse_threshold = 0.25;

  RunSpec back;
  std::string error;
  ASSERT_TRUE(RunSpec::FromJsonText(s.ToJson(), &back, &error)) << error;
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.priority, s.priority);
  EXPECT_EQ(back.d, s.d);
  EXPECT_EQ(back.n, s.n);
  EXPECT_EQ(back.torus, s.torus);
  EXPECT_EQ(back.pattern, s.pattern);
  EXPECT_EQ(back.pattern_seed, s.pattern_seed);
  EXPECT_EQ(back.pattern_opts.hot_count, s.pattern_opts.hot_count);
  EXPECT_DOUBLE_EQ(back.pattern_opts.hot_skew, s.pattern_opts.hot_skew);
  EXPECT_DOUBLE_EQ(back.driver.rate, s.driver.rate);
  EXPECT_EQ(back.driver.warmup_steps, s.driver.warmup_steps);
  EXPECT_EQ(back.driver.measure_steps, s.driver.measure_steps);
  EXPECT_EQ(back.driver.drain, s.driver.drain);
  EXPECT_EQ(back.driver.seed, s.driver.seed);
  EXPECT_EQ(back.step_cap, s.step_cap);
  EXPECT_EQ(back.stall_window, s.stall_window);
  EXPECT_EQ(back.sparse, s.sparse);
  EXPECT_DOUBLE_EQ(back.sparse_threshold, s.sparse_threshold);
  EXPECT_EQ(back.Fingerprint(), s.Fingerprint());
}

TEST(RunSpec, MinimalRequestParses) {
  RunSpec s;
  std::string error;
  ASSERT_TRUE(RunSpec::FromJsonText(
      "{\"topology\": {\"d\": 2, \"n\": 8}, "
      "\"pattern\": {\"kind\": \"uniform\"}, "
      "\"driver\": {\"rate\": 0.1, \"warmup\": 16, \"measure\": 64}}",
      &s, &error))
      << error;
  EXPECT_EQ(s.d, 2);
  EXPECT_EQ(s.n, 8);
  EXPECT_FALSE(s.torus);
  EXPECT_DOUBLE_EQ(s.driver.rate, 0.1);
}

TEST(RunSpec, RejectsBadShapesWithNamedField) {
  struct Case {
    const char* body;
    const char* needle;  // the error must name the offending field/key
  };
  const Case cases[] = {
      {"not json at all", "invalid JSON"},
      {"{\"topology\": {\"d\": 0, \"n\": 8}, \"pattern\": {\"kind\": "
       "\"uniform\"}, \"driver\": {\"rate\": 0.1, \"warmup\": 1, "
       "\"measure\": 1}}",
       "topology.d"},
      {"{\"topology\": {\"d\": 2, \"n\": 1}, \"pattern\": {\"kind\": "
       "\"uniform\"}, \"driver\": {\"rate\": 0.1, \"warmup\": 1, "
       "\"measure\": 1}}",
       "topology.n"},
      // 2^24 procs is the cap; 4096^3 = 2^36 must be rejected (and must
      // not overflow its way past the check).
      {"{\"topology\": {\"d\": 3, \"n\": 4096}, \"pattern\": {\"kind\": "
       "\"uniform\"}, \"driver\": {\"rate\": 0.1, \"warmup\": 1, "
       "\"measure\": 1}}",
       "processors"},
      {"{\"topology\": {\"d\": 2, \"n\": 8}, \"pattern\": {\"kind\": "
       "\"nope\"}, \"driver\": {\"rate\": 0.1, \"warmup\": 1, "
       "\"measure\": 1}}",
       "pattern.kind"},
      {"{\"topology\": {\"d\": 2, \"n\": 8}, \"pattern\": {\"kind\": "
       "\"uniform\"}, \"driver\": {\"rate\": 1.5, \"warmup\": 1, "
       "\"measure\": 1}}",
       "rate"},
      {"{\"topology\": {\"d\": 2, \"n\": 8}, \"pattern\": {\"kind\": "
       "\"uniform\"}, \"driver\": {\"rate\": 0.1, \"warmup\": 1, "
       "\"measure\": 0}}",
       "measure"},
  };
  for (const Case& c : cases) {
    RunSpec s;
    std::string error;
    EXPECT_FALSE(RunSpec::FromJsonText(c.body, &s, &error))
        << "accepted: " << c.body;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << "error \"" << error << "\" does not mention " << c.needle;
  }
}

TEST(RunSpec, RejectsUnknownKeysInsteadOfIgnoringThem) {
  // A typoed knob must fail the request — if it silently fell back to the
  // default it would dedupe against the wrong run.
  // "layout" named the packet-storage layout the engine no longer has: a
  // spec still carrying it is refused, not run under other options.
  const std::pair<const char*, const char*> cases[] = {
      {"{\"sparse_treshold\": 0.5}", "sparse_treshold"},
      {"{\"layout\": \"auto\"}", "layout"},
  };
  for (const auto& [engine, key] : cases) {
    RunSpec s;
    std::string error;
    EXPECT_FALSE(RunSpec::FromJsonText(
        std::string("{\"topology\": {\"d\": 2, \"n\": 8}, \"pattern\": "
                    "{\"kind\": \"uniform\"}, \"driver\": {\"rate\": 0.1, "
                    "\"warmup\": 1, \"measure\": 1}, \"engine\": ") +
            engine + "}",
        &s, &error));
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

TEST(RunSpec, FingerprintSeesEveryResultAffectingField) {
  const RunSpec base = BaseSpec();
  const std::uint64_t h0 = base.Fingerprint();
  int changed = 0;
  auto expect_moves = [&](const char* field, RunSpec mutated) {
    EXPECT_NE(mutated.Fingerprint(), h0) << "fingerprint blind to " << field;
    ++changed;
  };
  {
    RunSpec s = base; s.d = 3; expect_moves("d", s);
  }
  {
    RunSpec s = base; s.n = 4; expect_moves("n", s);
  }
  {
    RunSpec s = base; s.torus = true; expect_moves("torus", s);
  }
  {
    RunSpec s = base; s.pattern = PatternKind::kTranspose;
    expect_moves("pattern", s);
  }
  {
    RunSpec s = base; s.pattern_seed = 8; expect_moves("pattern_seed", s);
  }
  {
    RunSpec s = base; s.pattern_opts.hot_count = 5;
    expect_moves("hot_count", s);
  }
  {
    RunSpec s = base; s.pattern_opts.hot_skew = 0.9;
    expect_moves("hot_skew", s);
  }
  {
    RunSpec s = base; s.driver.rate = 0.2; expect_moves("rate", s);
  }
  {
    RunSpec s = base; s.driver.warmup_steps = 17; expect_moves("warmup", s);
  }
  {
    RunSpec s = base; s.driver.measure_steps = 65;
    expect_moves("measure", s);
  }
  {
    RunSpec s = base; s.driver.drain = false; expect_moves("drain", s);
  }
  {
    RunSpec s = base; s.driver.seed = 10; expect_moves("driver.seed", s);
  }
  {
    RunSpec s = base; s.step_cap = 1000; expect_moves("step_cap", s);
  }
  {
    RunSpec s = base; s.stall_window = 77; expect_moves("stall_window", s);
  }
  {
    RunSpec s = base; s.sparse = SparseMode::kAlways;
    expect_moves("sparse", s);
  }
  {
    RunSpec s = base; s.sparse_threshold = 0.75;
    expect_moves("sparse_threshold", s);
  }
  EXPECT_EQ(changed, 16);
}

TEST(RunSpec, FingerprintIgnoresSchedulingOnlyFields) {
  // Name and priority change nothing about the delivery trace; two
  // requests differing only there are the same experiment.
  const RunSpec base = BaseSpec();
  RunSpec s = base;
  s.name = "different label";
  s.priority = 42;
  EXPECT_EQ(s.Fingerprint(), base.Fingerprint());
}

// ---------------------------------------------------------------------------
// HashEngineOptions field sensitivity (the other half of the dedup key).

TEST(HashEngineOptions, MovesForEveryResultAffectingField) {
  const EngineOptions base;
  const std::uint64_t h0 = HashEngineOptions(base);
  {
    EngineOptions o; o.step_cap = 99;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  {
    EngineOptions o; o.stall_window = -1;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  {
    EngineOptions o; o.invariants = InvariantMode::kOn;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  {
    EngineOptions o; o.sparse = SparseMode::kAlways;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  {
    EngineOptions o; o.sparse_threshold = 0.125;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  Topology topo(2, 4, Wrap::kMesh);
  {
    // A *non-empty* fault plan flips the presence bit...
    FaultSpec fspec;
    fspec.link_rate = 0.5;
    const FaultPlan plan = FaultPlan::Random(topo, fspec, /*seed=*/3);
    ASSERT_FALSE(plan.empty());
    EngineOptions o; o.faults = &plan;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
  {
    // ...but an attached-and-empty plan is the fault-free hot path and
    // must hash identically to no plan at all.
    const FaultPlan plan(topo);
    ASSERT_TRUE(plan.empty());
    EngineOptions o; o.faults = &plan;
    EXPECT_EQ(HashEngineOptions(o), h0);
  }
  {
    TrafficPattern pattern(topo, PatternKind::kUniform, 1, {});
    OpenLoopInjector injector(topo, pattern, {});
    EngineOptions o; o.injector = &injector;
    EXPECT_NE(HashEngineOptions(o), h0);
  }
}

TEST(HashEngineOptions, IgnoresObservabilityAndExecutionHooks) {
  // None of these change a delivery trace (the engine's byte-identity
  // contracts), so none may move the hash: a checkpointed, traced,
  // metered run dedupes against — and resumes as — a bare one.
  const std::uint64_t h0 = HashEngineOptions({});
  MetricsRegistry registry;
  CongestionTrace trace;
  ThreadPool pool(0);
  FlightRecorder recorder(16);
  CheckpointOptions copts;
  copts.dir = FreshDir("serve_hash_ckpt");
  CheckpointManager ckpt(copts);

  EngineOptions o;
  o.metrics = &registry;
  o.probes = {&trace};
  o.pool = &pool;
  o.recorder = &recorder;
  o.checkpoint = &ckpt;
  EXPECT_EQ(HashEngineOptions(o), h0);
}

TEST(RunSpec, MakeEngineOptionsCarriesExactlyTheSpecKnobs) {
  RunSpec s = BaseSpec();
  s.step_cap = 5;
  s.stall_window = 6;
  s.sparse = SparseMode::kNever;
  s.sparse_threshold = 0.3;
  const EngineOptions o = s.MakeEngineOptions();
  EXPECT_EQ(o.step_cap, 5);
  EXPECT_EQ(o.stall_window, 6);
  EXPECT_EQ(o.sparse, SparseMode::kNever);
  EXPECT_DOUBLE_EQ(o.sparse_threshold, 0.3);
  EXPECT_EQ(o.pool, nullptr);
  EXPECT_EQ(o.injector, nullptr);
  EXPECT_EQ(o.metrics, nullptr);
}

// ---------------------------------------------------------------------------
// HTTP server + client.

TEST(HttpServer, RoutesRequestsAndEchoesBodies) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest& req) -> HttpResponse {
                             if (req.path == "/echo") {
                               return {200, "text/plain",
                                       req.method + " " + req.query + " " +
                                           req.body};
                             }
                             return {404, "text/plain", "nope"};
                           },
                           &error))
      << error;
  ASSERT_GT(server.port(), 0);

  HttpResult r = HttpFetch(server.port(), "POST", "/echo?x=1", "hello");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "POST x=1 hello");

  r = HttpFetch(server.port(), "GET", "/missing");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 404);
  EXPECT_GE(server.requests_served(), 2);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, HandlerExceptionsBecome500) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest&) -> HttpResponse {
                             throw std::runtime_error("boom");
                           },
                           &error))
      << error;
  const HttpResult r = HttpFetch(server.port(), "GET", "/");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 500);
}

TEST(HttpServer, OversizedRequestsAreSheddedNotServed) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest&) -> HttpResponse {
                             return {200, "text/plain", "served"};
                           },
                           &error))
      << error;
  const std::string huge(HttpServer::kMaxRequestBytes + 1, 'x');
  const HttpResult big = HttpFetch(server.port(), "POST", "/", huge);
  // The server stops reading at the cap and answers 413; depending on
  // socket buffering the client may instead see the connection drop while
  // still sending. Either way the request must not be served...
  if (big.ok) {
    EXPECT_EQ(big.status, 413);
  }
  // ...and the server must survive it and keep serving normal requests.
  const HttpResult after = HttpFetch(server.port(), "GET", "/");
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "served");
}

TEST(HttpServer, DripFeedingClientCannotHoldTheServer) {
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0,
                           [](const HttpRequest&) -> HttpResponse {
                             return {200, "text/plain", "ok"};
                           },
                           &error))
      << error;
  // A raw client that sends one byte of a request head every 250 ms and
  // never finishes it. Each byte lands well inside any per-read timeout, so
  // only a deadline on the whole request frees the single serving thread.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::atomic<bool> done{false};
  std::thread dripper([&] {
    // Gives up after 5 s, so a server without the deadline fails the timing
    // check below instead of hanging the suite.
    for (int i = 0; i < 20 && !done.load(); ++i) {
      if (::send(fd, "G", 1, MSG_NOSIGNAL) != 1) break;  // server hung up
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    ::shutdown(fd, SHUT_RDWR);
  });
  // Let the server accept the dripping connection first (it polls every
  // 50 ms), so the request below queues behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  const HttpResult r = HttpFetch(server.port(), "GET", "/healthz", "", 10000);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  done.store(true);
  dripper.join();
  ::close(fd);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_LE(ms, HttpServer::kReadTimeoutMs + 1000);
  EXPECT_EQ(server.requests_served(), 1);  // the drip was never answered
}

TEST(HttpServer, StopDoesNotWaitForASilentClient) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0, [](const HttpRequest&) -> HttpResponse {
    return {200, "text/plain", "ok"};
  }));
  // A raw client that connects and never sends a byte.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Let the server accept it (it polls every 50 ms), so Stop() lands while
  // the request read waits on the silent client.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ::close(fd);
  EXPECT_FALSE(server.running());
  // The read waits in 50 ms slices and gives up once Stop() is called; it
  // does not run out the 2 s read deadline.
  EXPECT_LE(ms, HttpServer::kReadTimeoutMs / 4);
  EXPECT_EQ(server.requests_served(), 0);
}

// ---------------------------------------------------------------------------
// RunScheduler.

RunSpec QuickSpec(std::uint64_t seed) {
  RunSpec s = BaseSpec();
  s.driver.seed = seed;
  s.pattern_seed = seed;
  return s;
}

// Long enough that a drain reliably lands mid-run (tens of thousands of
// engine steps), short enough that completing one is still cheap.
RunSpec LongSpec(std::uint64_t seed) {
  RunSpec s = QuickSpec(seed);
  s.driver.warmup_steps = 200;
  s.driver.measure_steps = 50000;
  return s;
}

bool WaitForState(const RunScheduler& sched, std::int64_t id, RunState want,
                  std::int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  RunRecord rec;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sched.Get(id, &rec) && rec.state == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool WaitForRunning(const RunScheduler& sched, std::int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (sched.CountByState().running >= 1) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(RunScheduler, ExecutesARunAndEmitsArtifacts) {
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_basic");
  opts.workers = 1;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;

  const auto out = sched.Submit(QuickSpec(1));
  ASSERT_TRUE(out.accepted) << out.error;
  EXPECT_FALSE(out.deduped);
  ASSERT_TRUE(sched.WaitIdle(30000));

  RunRecord rec;
  ASSERT_TRUE(sched.Get(out.id, &rec));
  EXPECT_EQ(rec.state, RunState::kDone);
  ASSERT_TRUE(rec.has_result);
  EXPECT_GT(rec.result.delivered, 0);
  EXPECT_NE(rec.delivery_hash, 0u);
  EXPECT_TRUE(std::filesystem::exists(rec.artifact_dir + "/result.json"));
  EXPECT_TRUE(std::filesystem::exists(rec.artifact_dir + "/metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(rec.artifact_dir + "/trace.json"));
  EXPECT_TRUE(std::filesystem::exists(opts.artifacts_dir + "/" +
                                      std::string(RunScheduler::kQueueFile)));
  sched.Drain();
}

TEST(RunScheduler, DedupsIdenticalSpecsToOneExecution) {
  MetricsRegistry registry;
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_dedup");
  opts.workers = 1;
  opts.metrics = &registry;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;

  const auto first = sched.Submit(QuickSpec(2));
  ASSERT_TRUE(first.accepted) << first.error;

  // Same experiment under a different label and priority: shared record.
  RunSpec relabeled = QuickSpec(2);
  relabeled.name = "same experiment, different label";
  relabeled.priority = 9;
  const auto dup = sched.Submit(relabeled);
  ASSERT_TRUE(dup.accepted) << dup.error;
  EXPECT_TRUE(dup.deduped);
  EXPECT_EQ(dup.id, first.id);

  // Dedup holds after completion too: done records stay in the table.
  ASSERT_TRUE(sched.WaitIdle(30000));
  const auto late = sched.Submit(QuickSpec(2));
  ASSERT_TRUE(late.accepted) << late.error;
  EXPECT_TRUE(late.deduped);
  EXPECT_EQ(late.id, first.id);

  RunRecord rec;
  ASSERT_TRUE(sched.Get(first.id, &rec));
  EXPECT_EQ(rec.dedup_hits, 2);
  EXPECT_EQ(rec.state, RunState::kDone);
  EXPECT_EQ(registry.counter("serve.submitted").Total(), 3);
  EXPECT_EQ(registry.counter("serve.deduped").Total(), 2);

  // A genuinely different spec gets its own record.
  const auto other = sched.Submit(QuickSpec(3));
  ASSERT_TRUE(other.accepted) << other.error;
  EXPECT_FALSE(other.deduped);
  EXPECT_NE(other.id, first.id);
  sched.Drain();
}

TEST(RunScheduler, EmitsJourneysArtifactAndSchedulerGauges) {
  MetricsRegistry registry;
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_journeys");
  opts.workers = 1;
  opts.journey_rate_pm = 1000;  // trace every packet
  opts.metrics = &registry;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;

  // The scheduler gauges are pre-registered at Start, so the very first
  // /metrics scrape already carries the series at their true values.
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("mdmesh_serve_queued"), std::string::npos);
  EXPECT_NE(prom.find("mdmesh_serve_running"), std::string::npos);
  EXPECT_NE(prom.find("mdmesh_serve_dedup_hits"), std::string::npos);

  const auto out = sched.Submit(QuickSpec(31));
  ASSERT_TRUE(out.accepted) << out.error;
  ASSERT_TRUE(sched.WaitIdle(30000));

  RunRecord rec;
  ASSERT_TRUE(sched.Get(out.id, &rec));
  ASSERT_EQ(rec.state, RunState::kDone);
  const std::string journeys = rec.artifact_dir + "/journeys.jsonl";
  ASSERT_TRUE(std::filesystem::exists(journeys));
  EXPECT_GT(std::filesystem::file_size(journeys), 0u);
  ASSERT_TRUE(rec.has_result);
  ASSERT_NE(rec.result.route.critical_path, nullptr);
  EXPECT_EQ(rec.result.route.critical_path->identity_violations, 0);

  // dedup_hits is a live gauge, not just a per-record counter.
  EXPECT_EQ(registry.gauge("serve.dedup_hits").Value(), 0);
  const auto dup1 = sched.Submit(QuickSpec(31));
  const auto dup2 = sched.Submit(QuickSpec(31));
  ASSERT_TRUE(dup1.deduped);
  ASSERT_TRUE(dup2.deduped);
  EXPECT_EQ(registry.gauge("serve.dedup_hits").Value(), 2);
  sched.Drain();
}

TEST(RunScheduler, RetentionEvictsAllButTheNewestCompletedRuns) {
  MetricsRegistry registry;
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_retention");
  opts.workers = 1;  // serial execution: ids complete in order
  opts.keep_completed_runs = 2;
  opts.metrics = &registry;
  std::vector<std::int64_t> ids;
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    for (std::uint64_t seed = 50; seed < 54; ++seed) {
      const auto out = sched.Submit(QuickSpec(seed));
      ASSERT_TRUE(out.accepted) << out.error;
      ids.push_back(out.id);
    }
    ASSERT_TRUE(sched.WaitIdle(60000));

    // Newest two keep their artifacts; the two oldest are reclaimed but
    // survive as history records.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      RunRecord rec;
      ASSERT_TRUE(sched.Get(ids[i], &rec));
      EXPECT_EQ(rec.state, RunState::kDone);
      const bool kept = i >= ids.size() - 2;
      EXPECT_EQ(rec.evicted, !kept) << "run " << rec.id;
      EXPECT_EQ(rec.artifact_dir.empty(), !kept) << "run " << rec.id;
      if (kept) {
        EXPECT_TRUE(
            std::filesystem::exists(rec.artifact_dir + "/result.json"));
      } else {
        EXPECT_FALSE(std::filesystem::exists(
            opts.artifacts_dir + "/run-" + std::to_string(rec.id)));
      }
    }
    EXPECT_EQ(registry.counter("serve.evicted").Total(), 2);
    EXPECT_TRUE(
        std::filesystem::exists(opts.artifacts_dir + "/evictions.log"));
    sched.Drain();
  }

  // Eviction is durable: a restarted scheduler must not resurrect the
  // reclaimed directories or re-evict the survivors.
  RunScheduler restarted(opts);
  std::string error;
  ASSERT_TRUE(restarted.Start(&error)) << error;
  ASSERT_TRUE(restarted.WaitIdle(60000));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    RunRecord rec;
    ASSERT_TRUE(restarted.Get(ids[i], &rec));
    EXPECT_EQ(rec.state, RunState::kDone);
    EXPECT_EQ(rec.evicted, i < ids.size() - 2);
    if (!rec.evicted) {
      EXPECT_TRUE(
          std::filesystem::exists(rec.artifact_dir + "/result.json"));
    }
  }
  EXPECT_EQ(registry.counter("serve.evicted").Total(), 2);
  restarted.Drain();
}

TEST(RunScheduler, BoundedQueueRejectsOverflow) {
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_bound");
  opts.workers = 1;
  opts.queue_limit = 2;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;

  // Occupy the single worker, then fill the queue.
  ASSERT_TRUE(sched.Submit(LongSpec(10)).accepted);
  ASSERT_TRUE(WaitForRunning(sched, 15000));
  ASSERT_TRUE(sched.Submit(LongSpec(11)).accepted);
  ASSERT_TRUE(sched.Submit(LongSpec(12)).accepted);

  const auto rejected = sched.Submit(LongSpec(13));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos)
      << rejected.error;

  // A duplicate of a queued spec still dedups — dedup wins over the bound.
  const auto dup = sched.Submit(LongSpec(11));
  EXPECT_TRUE(dup.accepted);
  EXPECT_TRUE(dup.deduped);
  sched.Drain();
}

TEST(RunScheduler, FailedRunsAreRetryableNotDeduped) {
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_fail");
  opts.workers = 1;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;

  // step_cap = 1 aborts the run on its first step: a deterministic failure.
  RunSpec doomed = QuickSpec(4);
  doomed.step_cap = 1;
  const auto first = sched.Submit(doomed);
  ASSERT_TRUE(first.accepted) << first.error;
  ASSERT_TRUE(WaitForState(sched, first.id, RunState::kFailed, 30000));

  RunRecord rec;
  ASSERT_TRUE(sched.Get(first.id, &rec));
  EXPECT_NE(rec.error.find("step_cap"), std::string::npos) << rec.error;

  // The failed fingerprint was evicted: a re-submission runs fresh
  // instead of sharing the failure.
  const auto retry = sched.Submit(doomed);
  ASSERT_TRUE(retry.accepted) << retry.error;
  EXPECT_FALSE(retry.deduped);
  EXPECT_NE(retry.id, first.id);
  sched.Drain();
}

TEST(RunScheduler, SubmitAfterDrainIsRejected) {
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir("serve_drained");
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;
  sched.Drain();
  const auto out = sched.Submit(QuickSpec(5));
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(out.error.find("draining"), std::string::npos) << out.error;
}

// The acceptance drill: eight queued specs with two duplicates deduped to
// one execution, a drain that interrupts in-flight runs mid-step (each
// checkpointing through the engine's abort path), and a restarted
// scheduler on the same artifact root that resumes every interrupted run —
// with delivery hashes identical to uninterrupted reference runs.
TEST(RunScheduler, DrainAndRestartResumeByteIdentically) {
  const std::string dir = FreshDir("serve_e2e");

  // Six unique experiments; submissions 7 and 8 duplicate the first two.
  std::vector<RunSpec> specs;
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    specs.push_back(LongSpec(seed));
  }
  RunSpec dup0 = specs[0];
  dup0.name = "duplicate of the first";
  RunSpec dup1 = specs[1];
  dup1.priority = 7;  // scheduling-only field: still the same experiment

  // Uninterrupted references, computed outside any scheduler.
  std::vector<std::uint64_t> want;
  for (const RunSpec& spec : specs) {
    Topology topo(spec.d, spec.n, spec.torus ? Wrap::kTorus : Wrap::kMesh);
    TrafficPattern pattern(topo, spec.pattern, spec.pattern_seed,
                           spec.pattern_opts);
    const WorkloadResult ref =
        RunOpenLoop(topo, pattern, spec.driver, spec.MakeEngineOptions());
    ASSERT_EQ(ref.route.stall_report, nullptr);
    want.push_back(ref.delivery_hash);
  }

  MetricsRegistry registry;
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 2;
  opts.threads_per_run = 0;
  opts.checkpoint_every_steps = 64;
  opts.checkpoint_keep = 3;
  opts.metrics = &registry;

  std::vector<std::int64_t> ids;
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;

    for (const RunSpec& spec : specs) {
      const auto out = sched.Submit(spec);
      ASSERT_TRUE(out.accepted) << out.error;
      EXPECT_FALSE(out.deduped);
      ids.push_back(out.id);
    }
    const auto d0 = sched.Submit(dup0);
    ASSERT_TRUE(d0.accepted) << d0.error;
    EXPECT_TRUE(d0.deduped);
    EXPECT_EQ(d0.id, ids[0]);
    const auto d1 = sched.Submit(dup1);
    ASSERT_TRUE(d1.accepted) << d1.error;
    EXPECT_TRUE(d1.deduped);
    EXPECT_EQ(d1.id, ids[1]);
    EXPECT_EQ(registry.counter("serve.deduped").Total(), 2);

    // SIGTERM equivalent: drain as soon as work is in flight.
    ASSERT_TRUE(WaitForRunning(sched, 15000));
    sched.Drain();

    const auto counts = sched.CountByState();
    EXPECT_GE(counts.interrupted, 1)
        << "drain caught nothing in flight (queued=" << counts.queued
        << " done=" << counts.done << ")";
    EXPECT_EQ(counts.running, 0);
    bool any_resumable = false;
    for (const RunRecord& rec : sched.Snapshot()) {
      if (rec.state == RunState::kInterrupted) {
        EXPECT_TRUE(rec.resume_pending);
        // Interrupted runs leave checkpoints, not results.
        EXPECT_FALSE(rec.has_result);
        any_resumable = any_resumable || rec.resume_pending;
      }
    }
    EXPECT_TRUE(any_resumable);
  }

  // "Restart the server": a new scheduler on the same artifact root picks
  // up queue.json, re-enqueues interrupted + queued work, and resumes from
  // the drain checkpoints.
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    ASSERT_TRUE(sched.WaitIdle(120000));

    const auto counts = sched.CountByState();
    EXPECT_EQ(counts.done, static_cast<std::int64_t>(specs.size()));
    EXPECT_EQ(counts.queued, 0);
    EXPECT_EQ(counts.interrupted, 0);
    EXPECT_EQ(counts.failed, 0);
    EXPECT_GE(sched.resumed_runs(), 1)
        << "no run continued from a drain checkpoint";

    for (std::size_t i = 0; i < specs.size(); ++i) {
      RunRecord rec;
      ASSERT_TRUE(sched.Get(ids[i], &rec)) << "run " << ids[i] << " lost "
                                           << "across the restart";
      EXPECT_EQ(rec.state, RunState::kDone);
      EXPECT_EQ(rec.delivery_hash, want[i])
          << "run " << ids[i] << " diverged after drain + resume";
    }
    // Dedup state survived the restart too.
    RunRecord primary;
    ASSERT_TRUE(sched.Get(ids[0], &primary));
    EXPECT_EQ(primary.dedup_hits, 1);
    const auto dup_again = sched.Submit(dup0);
    ASSERT_TRUE(dup_again.accepted) << dup_again.error;
    EXPECT_TRUE(dup_again.deduped);
    EXPECT_EQ(dup_again.id, ids[0]);
    sched.Drain();
  }
}

// ---------------------------------------------------------------------------
// Run journal: crash images, torn and corrupt tails, parent-format
// snapshots, constant append cost, and a fresh root left untouched.

std::string ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

std::string Root(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

/// What a SIGKILL would leave of `live` right now, copied into `image`:
/// the snapshot and journal, then whatever run directories can be read.
void CopyCrashImage(const std::string& live, const std::string& image) {
  std::filesystem::create_directories(image);
  for (const char* file :
       {RunScheduler::kQueueFile, RunScheduler::kJournalFile}) {
    if (std::filesystem::exists(Root(live, file))) {
      WriteBytes(Root(image, file), ReadBytes(Root(live, file)));
    }
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(live, ec)) {
    if (entry.is_directory(ec)) {
      std::filesystem::copy(
          entry.path(), image + "/" + entry.path().filename().string(),
          std::filesystem::copy_options::recursive, ec);
    }
  }
}

/// Each frame's payload and byte offset, in file order.
struct Frames {
  std::vector<std::string> payloads;
  std::vector<std::size_t> offsets;
  JournalScan scan;
};

Frames ScanFile(const std::string& bytes) {
  Frames f;
  const auto* base = reinterpret_cast<const std::uint8_t*>(bytes.data());
  f.scan = ScanJournal(base, bytes.size(), [&](std::string_view payload) {
    f.payloads.emplace_back(payload);
    const auto* at = reinterpret_cast<const std::uint8_t*>(payload.data());
    f.offsets.push_back(static_cast<std::size_t>(at - base) -
                        kJournalFrameHeaderSize);
  });
  return f;
}

std::uint64_t ReferenceHash(const RunSpec& spec) {
  Topology topo(spec.d, spec.n, spec.torus ? Wrap::kTorus : Wrap::kMesh);
  TrafficPattern pattern(topo, spec.pattern, spec.pattern_seed,
                         spec.pattern_opts);
  return RunOpenLoop(topo, pattern, spec.driver, spec.MakeEngineOptions())
      .delivery_hash;
}

TEST(RunJournal, CrashImageRestoresEveryAcknowledgedRun) {
  const std::string live = FreshDir("journal_live");
  const std::string image = FreshDir("journal_image");
  SchedulerOptions opts;
  opts.artifacts_dir = live;
  opts.workers = 1;
  std::vector<RunSpec> specs = {QuickSpec(60), QuickSpec(61), LongSpec(62),
                                QuickSpec(63), QuickSpec(64)};
  std::vector<std::int64_t> ids;
  std::vector<RunRecord> before;
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    // K = 2 completions, then a long run that holds the worker while two
    // more queue behind it and duplicates land on a done and a queued run.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto out = sched.Submit(specs[i]);
      ASSERT_TRUE(out.accepted) << out.error;
      ids.push_back(out.id);
      if (i == 1) {
        ASSERT_TRUE(sched.WaitIdle(30000));
      }
      if (i == 2) {
        ASSERT_TRUE(
            WaitForState(sched, out.id, RunState::kRunning, 15000));
      }
    }
    ASSERT_TRUE(sched.Submit(specs[0]).deduped);
    ASSERT_TRUE(sched.Submit(specs[3]).deduped);
    before = sched.Snapshot();
    ASSERT_EQ(before.size(), 5u);
    ASSERT_EQ(before[2].state, RunState::kRunning)
        << "the long run finished before the image was taken";
    CopyCrashImage(live, image);
    sched.Drain();
  }

  opts.artifacts_dir = image;
  RunScheduler restored(opts);
  std::string error;
  ASSERT_TRUE(restored.Start(&error)) << error;
  // Start compacted the replayed journal into queue.json before any worker
  // ran: that snapshot is the restored state.
  const JsonParseResult snap =
      ParseJson(ReadBytes(Root(image, RunScheduler::kQueueFile)));
  ASSERT_TRUE(snap.ok) << snap.error;
  EXPECT_EQ(snap.value["next_id"].AsInt(), 6);
  ASSERT_EQ(snap.value["runs"].Items().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    const JsonValue& rv = snap.value["runs"].Items()[i];
    const RunRecord& want = before[i];
    EXPECT_EQ(rv["id"].AsInt(), want.id);
    EXPECT_EQ(rv["dedup_hits"].AsInt(), want.dedup_hits) << "run " << want.id;
    EXPECT_EQ(rv["delivery_hash"].AsUInt(), want.delivery_hash);
    if (want.state == RunState::kRunning) {
      EXPECT_EQ(rv["state"].AsString(), "queued");
      EXPECT_TRUE(rv["resume_pending"].AsBool());
    } else {
      EXPECT_EQ(rv["state"].AsString(), RunStateName(want.state));
    }
  }
  EXPECT_EQ(before[0].dedup_hits, 1);
  EXPECT_EQ(before[3].dedup_hits, 1);

  ASSERT_TRUE(restored.WaitIdle(120000));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunRecord rec;
    ASSERT_TRUE(restored.Get(ids[i], &rec));
    EXPECT_EQ(rec.state, RunState::kDone) << "run " << ids[i];
    EXPECT_EQ(rec.delivery_hash, ReferenceHash(specs[i])) << "run " << ids[i];
  }
  // next_id survived: the next unique spec gets the next id.
  const auto next = restored.Submit(QuickSpec(65));
  ASSERT_TRUE(next.accepted) << next.error;
  EXPECT_EQ(next.id, 6);
  restored.Drain();
}

// A root whose journal ends in a dedup hit on a done run: the last frame's
// only effect is that run's dedup_hits going from 0 to 1.
struct DedupTailImage {
  std::string snapshot;
  std::string journal;
  std::int64_t id = -1;
  std::uint64_t hash = 0;
};

DedupTailImage MakeDedupTailImage(const std::string& name) {
  SchedulerOptions opts;
  opts.artifacts_dir = FreshDir(name);
  opts.workers = 1;
  RunScheduler sched(opts);
  std::string error;
  EXPECT_TRUE(sched.Start(&error)) << error;
  DedupTailImage img;
  img.id = sched.Submit(QuickSpec(70)).id;
  sched.Submit(QuickSpec(71));
  EXPECT_TRUE(sched.WaitIdle(30000));
  EXPECT_TRUE(sched.Submit(QuickSpec(70)).deduped);
  RunRecord rec;
  EXPECT_TRUE(sched.Get(img.id, &rec));
  img.hash = rec.delivery_hash;
  img.snapshot = ReadBytes(Root(opts.artifacts_dir, RunScheduler::kQueueFile));
  img.journal =
      ReadBytes(Root(opts.artifacts_dir, RunScheduler::kJournalFile));
  sched.Drain();
  return img;
}

/// Restores `snapshot` + `journal` in `dir` and returns run `id`'s record
/// (id -1 when absent) and the total record count.
std::pair<RunRecord, std::size_t> RestoreImage(const std::string& dir,
                                               const std::string& snapshot,
                                               const std::string& journal,
                                               std::int64_t id) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteBytes(Root(dir.c_str(), RunScheduler::kQueueFile), snapshot);
  WriteBytes(Root(dir.c_str(), RunScheduler::kJournalFile), journal);
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 1;
  RunScheduler sched(opts);
  std::string error;
  EXPECT_TRUE(sched.Start(&error)) << error;
  RunRecord rec;
  sched.Get(id, &rec);
  const std::size_t count = sched.Snapshot().size();
  sched.Drain();
  return {rec, count};
}

TEST(RunJournal, TornTailDropsOnlyTheTornFrame) {
  const DedupTailImage img = MakeDedupTailImage("journal_torn_src");
  const Frames frames = ScanFile(img.journal);
  ASSERT_TRUE(frames.scan.stop_reason.empty()) << frames.scan.stop_reason;
  ASSERT_GE(frames.offsets.size(), 7u);  // 2 x (submit, running, done) + hit
  const std::size_t last = frames.offsets.back();
  ASSERT_NE(frames.payloads.back().find("\"dedup_hits\":1"),
            std::string::npos);

  const std::string dir = TempDir() + "journal_torn";
  const auto whole = RestoreImage(dir, img.snapshot, img.journal, img.id);
  EXPECT_EQ(whole.first.dedup_hits, 1);
  // Every cut from the frame's first byte to its last: the earlier frames
  // all replay, the torn one does not.
  for (std::size_t cut = last; cut < img.journal.size(); ++cut) {
    const std::string torn = img.journal.substr(0, cut);
    const Frames scanned = ScanFile(torn);
    ASSERT_EQ(scanned.scan.frames, frames.offsets.size() - 1) << cut;
    ASSERT_EQ(scanned.scan.dropped_bytes, cut - last) << cut;
    const auto got = RestoreImage(dir, img.snapshot, torn, img.id);
    ASSERT_EQ(got.second, 2u) << "cut at byte " << cut;
    ASSERT_EQ(got.first.state, RunState::kDone) << cut;
    ASSERT_EQ(got.first.dedup_hits, 0) << cut;
    ASSERT_EQ(got.first.delivery_hash, img.hash) << cut;
    // The restore replaced the torn journal with a clean one.
    const Frames after =
        ScanFile(ReadBytes(Root(dir.c_str(), RunScheduler::kJournalFile)));
    ASSERT_EQ(after.scan.dropped_bytes, 0u) << cut;
  }
}

TEST(RunJournal, CorruptPayloadIsRejectedByItsCrc) {
  const DedupTailImage img = MakeDedupTailImage("journal_crc_src");
  const Frames frames = ScanFile(img.journal);
  const std::size_t last = frames.offsets.back();
  std::string corrupt = img.journal;
  corrupt[last + kJournalFrameHeaderSize + 10] ^= 0x20;
  const Frames scanned = ScanFile(corrupt);
  EXPECT_EQ(scanned.scan.frames, frames.offsets.size() - 1);
  EXPECT_EQ(scanned.scan.stop_reason, "frame CRC mismatch");
  EXPECT_EQ(scanned.scan.dropped_bytes, img.journal.size() - last);
  const auto got = RestoreImage(TempDir() + "journal_crc", img.snapshot,
                                corrupt, img.id);
  EXPECT_EQ(got.first.dedup_hits, 0);
  EXPECT_EQ(got.first.delivery_hash, img.hash);

  // A flipped byte in the header is a foreign file, not a torn tail.
  std::string foreign = img.journal;
  foreign[0] = 'X';
  EXPECT_FALSE(ScanFile(foreign).scan.header_ok);
  const std::string dir = FreshDir("journal_foreign");
  std::filesystem::create_directories(dir);
  WriteBytes(Root(dir.c_str(), RunScheduler::kJournalFile), foreign);
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  RunScheduler sched(opts);
  std::string error;
  EXPECT_FALSE(sched.Start(&error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(RunJournal, ParentQueueJsonRestoresWithoutAJournal) {
  // queue.json as the scheduler wrote it before the journal existed: every
  // record through WriteRunRecordJson, results included.
  const std::string dir = FreshDir("journal_compat");
  std::filesystem::create_directories(dir);
  std::vector<RunRecord> recs(5);
  const RunSpec specs[5] = {QuickSpec(80), QuickSpec(81), QuickSpec(82),
                            QuickSpec(83), QuickSpec(84)};
  const RunState states[5] = {RunState::kDone, RunState::kInterrupted,
                              RunState::kFailed, RunState::kDone,
                              RunState::kQueued};
  for (std::size_t i = 0; i < recs.size(); ++i) {
    RunRecord& r = recs[i];
    r.id = static_cast<std::int64_t>(i) + 1;
    r.spec = specs[i];
    r.state = states[i];
    r.fingerprint = specs[i].Fingerprint();
    r.artifact_dir = dir + "/run-" + std::to_string(r.id);
  }
  recs[0].dedup_hits = 2;
  recs[0].has_result = true;
  recs[0].delivery_hash = 0x1234abcd5678ef00ull;
  recs[1].resume_pending = true;
  recs[2].error = "run aborted: step_cap at step 1";
  recs[3].evicted = true;
  recs[3].artifact_dir.clear();
  recs[3].delivery_hash = 77;
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("next_id").Int(6);
  w.Key("runs").BeginArray();
  for (const RunRecord& r : recs) WriteRunRecordJson(r, w);
  w.EndArray();
  w.EndObject();
  os << '\n';
  const std::string parent = os.str();
  ASSERT_NE(parent.find("\"result\": {"), std::string::npos);
  WriteBytes(Root(dir.c_str(), RunScheduler::kQueueFile), parent);

  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 1;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;
  ASSERT_TRUE(sched.WaitIdle(60000));
  RunRecord rec;
  ASSERT_TRUE(sched.Get(1, &rec));
  EXPECT_EQ(rec.state, RunState::kDone);
  EXPECT_EQ(rec.dedup_hits, 2);
  EXPECT_EQ(rec.delivery_hash, 0x1234abcd5678ef00ull);
  ASSERT_TRUE(sched.Get(2, &rec));  // interrupted: ran again from scratch
  EXPECT_EQ(rec.state, RunState::kDone);
  EXPECT_EQ(rec.delivery_hash, ReferenceHash(specs[1]));
  ASSERT_TRUE(sched.Get(3, &rec));
  EXPECT_EQ(rec.state, RunState::kFailed);
  EXPECT_EQ(rec.error, recs[2].error);
  ASSERT_TRUE(sched.Get(4, &rec));
  EXPECT_TRUE(rec.evicted);
  EXPECT_TRUE(rec.artifact_dir.empty());
  ASSERT_TRUE(sched.Get(5, &rec));
  EXPECT_EQ(rec.state, RunState::kDone);
  EXPECT_EQ(rec.delivery_hash, ReferenceHash(specs[4]));
  // Dedup and next_id: a done fingerprint dedups, a failed one runs again
  // under the next id.
  EXPECT_TRUE(sched.Submit(specs[0]).deduped);
  const auto retry = sched.Submit(specs[2]);
  EXPECT_FALSE(retry.deduped);
  EXPECT_EQ(retry.id, 6);
  // The runs since Start went to the journal; the snapshot is untouched
  // until compaction.
  EXPECT_EQ(ReadBytes(Root(dir.c_str(), RunScheduler::kQueueFile)), parent);
  EXPECT_TRUE(
      std::filesystem::exists(Root(dir.c_str(), RunScheduler::kJournalFile)));
  sched.Drain();
  EXPECT_NE(ReadBytes(Root(dir.c_str(), RunScheduler::kQueueFile)), parent);
}

std::string WithoutDigits(std::string s) {
  s.erase(std::remove_if(s.begin(), s.end(),
                         [](char c) { return c >= '0' && c <= '9'; }),
          s.end());
  return s;
}

TEST(RunJournal, SubmissionCostDoesNotGrowWithRecords) {
  const std::string dir = FreshDir("journal_o1");
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 1;
  opts.queue_limit = 256;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;
  const std::string journal = Root(dir.c_str(), RunScheduler::kJournalFile);
  const std::string queue = Root(dir.c_str(), RunScheduler::kQueueFile);
  // Same-shape specs: the first holds the worker, so every later
  // submission appends exactly its own frame.
  std::vector<std::uintmax_t> appended;
  std::string snapshot_after_first;
  std::uintmax_t size = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto out = sched.Submit(LongSpec(100 + k));
    ASSERT_TRUE(out.accepted) << out.error;
    ASSERT_FALSE(out.deduped);
    if (k == 0) {
      ASSERT_TRUE(WaitForRunning(sched, 15000));
      snapshot_after_first = ReadBytes(queue);
    }
    const std::uintmax_t now = std::filesystem::file_size(journal);
    appended.push_back(now - size);
    size = now;
  }
  // Nothing rewrote queue.json after the initial snapshot.
  EXPECT_EQ(ReadBytes(queue), snapshot_after_first);
  RunRecord running;
  ASSERT_TRUE(sched.Get(1, &running));
  ASSERT_EQ(running.state, RunState::kRunning)
      << "the first run finished while submissions were being timed";

  const Frames frames = ScanFile(ReadBytes(journal));
  std::string first;
  std::string last;
  for (const std::string& payload : frames.payloads) {
    if (payload.rfind("{\"id\":1,", 0) == 0 && first.empty()) first = payload;
    if (payload.rfind("{\"id\":200,", 0) == 0) last = payload;
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(WithoutDigits(first), WithoutDigits(last));
  // The 200th submission appended one frame of the 1st one's shape: the
  // same bytes apart from digit width (ids, fingerprints).
  EXPECT_EQ(appended.back(), kJournalFrameHeaderSize + last.size());
  const auto first_bytes = static_cast<std::intmax_t>(first.size());
  const auto last_bytes = static_cast<std::intmax_t>(last.size());
  EXPECT_LE(std::abs(last_bytes - first_bytes), 24) << first << "\n" << last;
  sched.Drain();
}

// Submissions from several threads race for the commit leader's role
// while the workers journal and commit their own transitions, and three
// records under 48 submissions pass kCompactFramesPerRecord again and
// again, so compactions run while other threads append: every
// acknowledged submission must be on disk once Submit returns.
TEST(RunJournal, ConcurrentSubmissionsAreDurableWhenAcknowledged) {
  const std::string dir = FreshDir("journal_concurrent");
  const std::string image = FreshDir("journal_concurrent_image");
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 2;
  opts.queue_limit = 256;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  constexpr int kSpecs = 3;
  std::vector<std::vector<RunScheduler::SubmitOutcome>> outcomes(kThreads);
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sched, &outcomes, t] {
        for (int k = 0; k < kPerThread; ++k) {
          outcomes[static_cast<std::size_t>(t)].push_back(sched.Submit(
              QuickSpec(200 + static_cast<std::uint64_t>(k % kSpecs))));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    // Everything acknowledged is in the journal already.
    CopyCrashImage(dir, image);
    ASSERT_TRUE(sched.WaitIdle(60000));
    sched.Drain();
  }
  std::map<std::int64_t, std::int64_t> submissions;  // id -> count
  for (const auto& per_thread : outcomes) {
    for (const RunScheduler::SubmitOutcome& out : per_thread) {
      ASSERT_TRUE(out.accepted) << out.error;
      ++submissions[out.id];
    }
  }
  ASSERT_EQ(submissions.size(), static_cast<std::size_t>(kSpecs));
  opts.artifacts_dir = image;
  RunScheduler restored(opts);
  std::string error;
  ASSERT_TRUE(restored.Start(&error)) << error;
  for (const auto& [id, count] : submissions) {
    RunRecord rec;
    ASSERT_TRUE(restored.Get(id, &rec)) << "run " << id;
    EXPECT_EQ(rec.dedup_hits, count - 1) << "run " << id;
  }
  ASSERT_TRUE(restored.WaitIdle(60000));
  EXPECT_EQ(restored.CountByState().done, kSpecs);
  restored.Drain();
}

TEST(RunJournal, FreshStartWritesNothing) {
  const std::string dir = FreshDir("journal_fresh");
  std::filesystem::create_directories(dir);
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  RunScheduler sched(opts);
  std::string error;
  ASSERT_TRUE(sched.Start(&error)) << error;
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  sched.Drain();
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(RunJournal, CrashAtAnyInstantOfACompactionRestoresTheSameRecords) {
  const std::string live = FreshDir("journal_compact_live");
  SchedulerOptions opts;
  opts.artifacts_dir = live;
  opts.workers = 1;
  std::string s0, j0, s1, j1;
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    for (std::uint64_t seed = 40; seed < 43; ++seed) {
      ASSERT_TRUE(sched.Submit(QuickSpec(seed)).accepted);
    }
    ASSERT_TRUE(sched.WaitIdle(30000));
    ASSERT_TRUE(sched.Submit(QuickSpec(40)).deduped);
    ASSERT_TRUE(sched.Submit(QuickSpec(42)).deduped);
    s0 = ReadBytes(Root(live.c_str(), RunScheduler::kQueueFile));
    j0 = ReadBytes(Root(live.c_str(), RunScheduler::kJournalFile));
    sched.Drain();  // compaction: s0 + j0 -> s1 + j1
    s1 = ReadBytes(Root(live.c_str(), RunScheduler::kQueueFile));
    j1 = ReadBytes(Root(live.c_str(), RunScheduler::kJournalFile));
  }
  ASSERT_GT(ScanFile(j0).scan.frames, 0u);
  ASSERT_EQ(ScanFile(j1).scan.frames, 0u);
  ASSERT_NE(s0, s1);

  // The files a crash can leave, step by step through a compaction: the
  // snapshot's temp file half-written, the snapshot renamed, the new
  // journal's temp file written, and the journal renamed.
  struct Image {
    const char* when;
    std::string snapshot, journal, snapshot_tmp, journal_tmp;
  };
  const std::vector<Image> images = {
      {"before", s0, j0, "", ""},
      {"snapshot half-written", s0, j0, s1.substr(0, s1.size() / 2), ""},
      {"snapshot renamed", s1, j0, "", ""},
      {"new journal written", s1, j0, "", j1},
      {"new journal half-written", s1, j0, "", j1.substr(0, 5)},
      {"journal renamed", s1, j1, "", ""},
  };
  const std::string dir = TempDir() + "journal_compact_image";
  for (const Image& img : images) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WriteBytes(Root(dir.c_str(), RunScheduler::kQueueFile), img.snapshot);
    WriteBytes(Root(dir.c_str(), RunScheduler::kJournalFile), img.journal);
    if (!img.snapshot_tmp.empty()) {
      WriteBytes(dir + "/queue.json.tmp", img.snapshot_tmp);
    }
    if (!img.journal_tmp.empty()) {
      WriteBytes(dir + "/queue.journal.tmp", img.journal_tmp);
    }
    opts.artifacts_dir = dir;
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << img.when << ": " << error;
    // Every image restores the drained state: the snapshot Start leaves
    // (compacted where the journal held frames) is s1, byte for byte.
    EXPECT_EQ(ReadBytes(Root(dir.c_str(), RunScheduler::kQueueFile)), s1)
        << img.when;
    sched.Drain();
  }
}

TEST(RunJournal, CompactsOnceTheJournalOutgrowsItsRecords) {
  const std::string dir = FreshDir("journal_threshold");
  const std::string image = FreshDir("journal_threshold_image");
  SchedulerOptions opts;
  opts.artifacts_dir = dir;
  opts.workers = 1;
  constexpr int kHits = 20;
  {
    RunScheduler sched(opts);
    std::string error;
    ASSERT_TRUE(sched.Start(&error)) << error;
    ASSERT_TRUE(sched.Submit(QuickSpec(90)).accepted);
    ASSERT_TRUE(sched.WaitIdle(30000));
    // One record, then a frame per hit: the journal outgrows
    // kCompactFramesPerRecord frames per record and folds into queue.json.
    for (int i = 0; i < kHits; ++i) {
      ASSERT_TRUE(sched.Submit(QuickSpec(90)).deduped);
    }
    const Frames frames =
        ScanFile(ReadBytes(Root(dir.c_str(), RunScheduler::kJournalFile)));
    EXPECT_LE(frames.scan.frames, RunScheduler::kCompactFramesPerRecord + 1);
    const JsonParseResult snap =
        ParseJson(ReadBytes(Root(dir.c_str(), RunScheduler::kQueueFile)));
    ASSERT_TRUE(snap.ok) << snap.error;
    EXPECT_GT(snap.value["runs"].Items()[0]["dedup_hits"].AsInt(), 0);
    CopyCrashImage(dir, image);
    sched.Drain();
  }
  opts.artifacts_dir = image;
  RunScheduler restored(opts);
  std::string error;
  ASSERT_TRUE(restored.Start(&error)) << error;
  RunRecord rec;
  ASSERT_TRUE(restored.Get(1, &rec));
  EXPECT_EQ(rec.dedup_hits, kHits);
  restored.Drain();
}

// ---------------------------------------------------------------------------
// ExperimentService: the HTTP control plane end to end.

TEST(ExperimentService, HttpControlPlaneEndToEnd) {
  ServiceOptions opts;
  opts.scheduler.artifacts_dir = FreshDir("serve_http");
  opts.scheduler.workers = 2;
  ExperimentService service(opts);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  const int port = service.port();
  ASSERT_GT(port, 0);

  // Liveness + 404 + 405 surfaces.
  EXPECT_EQ(HttpFetch(port, "GET", "/healthz").status, 200);
  EXPECT_EQ(HttpFetch(port, "GET", "/no-such-route").status, 404);
  EXPECT_EQ(HttpFetch(port, "DELETE", "/runs").status, 405);
  EXPECT_EQ(HttpFetch(port, "GET", "/runs/notanumber").status, 400);
  EXPECT_EQ(HttpFetch(port, "GET", "/runs/999").status, 404);

  // Invalid spec: 400 with the offending field named.
  const HttpResult bad =
      HttpFetch(port, "POST", "/runs", "{\"topology\": {\"d\": 0}}");
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("topology"), std::string::npos) << bad.body;

  // Submit, then the duplicate.
  const std::string spec = QuickSpec(30).ToJson();
  const HttpResult sub = HttpFetch(port, "POST", "/runs", spec);
  ASSERT_TRUE(sub.ok) << sub.error;
  ASSERT_EQ(sub.status, 202) << sub.body;
  const JsonParseResult sub_json = ParseJson(sub.body);
  ASSERT_TRUE(sub_json.ok) << sub_json.error;
  const std::int64_t id = sub_json.value["id"].AsInt();
  EXPECT_FALSE(sub_json.value["deduped"].AsBool());
  EXPECT_EQ(sub_json.value["location"].AsString(),
            "/runs/" + std::to_string(id));

  const HttpResult dup = HttpFetch(port, "POST", "/runs", spec);
  ASSERT_TRUE(dup.ok) << dup.error;
  ASSERT_EQ(dup.status, 202) << dup.body;
  const JsonParseResult dup_json = ParseJson(dup.body);
  ASSERT_TRUE(dup_json.ok) << dup_json.error;
  EXPECT_TRUE(dup_json.value["deduped"].AsBool());
  EXPECT_EQ(dup_json.value["id"].AsInt(), id);

  // Poll the record to completion, exactly as serve_client.py wait does.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string state;
  JsonParseResult record;
  while (std::chrono::steady_clock::now() < deadline) {
    const HttpResult get =
        HttpFetch(port, "GET", "/runs/" + std::to_string(id));
    ASSERT_TRUE(get.ok) << get.error;
    ASSERT_EQ(get.status, 200) << get.body;
    record = ParseJson(get.body);
    ASSERT_TRUE(record.ok) << record.error;
    state = record.value["state"].AsString();
    if (state == "done" || state == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(state, "done") << record.value["error"].AsString();
  EXPECT_EQ(record.value["dedup_hits"].AsInt(), 1);
  EXPECT_NE(record.value["delivery_hash"].AsUInt(), 0u);
  EXPECT_GT(record.value["result"]["delivered"].AsInt(), 0);
  const std::string result_path =
      record.value["artifacts"]["result"].AsString();
  EXPECT_TRUE(std::filesystem::exists(result_path)) << result_path;

  // Listing carries counts + every record.
  const HttpResult list = HttpFetch(port, "GET", "/runs");
  ASSERT_TRUE(list.ok) << list.error;
  ASSERT_EQ(list.status, 200);
  const JsonParseResult list_json = ParseJson(list.body);
  ASSERT_TRUE(list_json.ok) << list_json.error;
  EXPECT_GE(list_json.value["counts"]["done"].AsInt(), 1);
  EXPECT_EQ(list_json.value["runs"].size(), 1u);

  // Live metrics: service counters stream out in Prometheus text form.
  const HttpResult metrics = HttpFetch(port, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("serve_submitted"), std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("serve_completed"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_http_requests"), std::string::npos);

  const HttpResult status = HttpFetch(port, "GET", "/status");
  ASSERT_TRUE(status.ok) << status.error;
  const JsonParseResult status_json = ParseJson(status.body);
  ASSERT_TRUE(status_json.ok) << status_json.error;
  EXPECT_EQ(status_json.value["service"].AsString(),
            "mdmesh-experiment-server");
  EXPECT_FALSE(status_json.value["draining"].AsBool());

  service.Stop();
  EXPECT_FALSE(service.running());
}

TEST(ExperimentService, QueueFullSurfacesAs429) {
  ServiceOptions opts;
  opts.scheduler.artifacts_dir = FreshDir("serve_http_429");
  opts.scheduler.workers = 1;
  opts.scheduler.queue_limit = 1;
  ExperimentService service(opts);
  std::string error;
  ASSERT_TRUE(service.Start(&error)) << error;
  const int port = service.port();

  // Occupy the worker, fill the one queue slot, then overflow.
  ASSERT_EQ(HttpFetch(port, "POST", "/runs", LongSpec(40).ToJson()).status,
            202);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (service.scheduler().CountByState().running < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.scheduler().CountByState().running, 1);
  ASSERT_EQ(HttpFetch(port, "POST", "/runs", LongSpec(41).ToJson()).status,
            202);
  const HttpResult full =
      HttpFetch(port, "POST", "/runs", LongSpec(42).ToJson());
  ASSERT_TRUE(full.ok) << full.error;
  EXPECT_EQ(full.status, 429) << full.body;
  EXPECT_NE(full.body.find("queue full"), std::string::npos) << full.body;
  service.Stop();
}

}  // namespace
}  // namespace mdmesh
