// Tests for the unified timeline-export layer: RunManifest, MetricsRegistry,
// and the ChromeTraceWriter Chrome Trace Event sink — including a full
// engine-instrumented round trip validated with python3 -m json.tool.
#include "obs/chrome_trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/engine.h"
#include "obs/manifest.h"
#include "obs/probe.h"
#include "obs/registry.h"
#include "routing/permutations.h"
#include "run_digest.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdmesh {
namespace {

// ---------------------------------------------------------------- RunManifest

TEST(RunManifestTest, ToJsonSerializesEveryField) {
  RunManifest m;
  m.d = 3;
  m.n = 16;
  m.torus = true;
  m.seed = 42;
  m.threads = 4;
  m.sparse_mode = "auto";
  m.engine_options_hash = "deadbeef00000000";
  m.binary = "test_bin";
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tool\":\"mdmesh\""), std::string::npos);
  EXPECT_NE(json.find("\"d\":3"), std::string::npos);
  EXPECT_NE(json.find("\"n\":16"), std::string::npos);
  EXPECT_NE(json.find("\"wrap\":\"torus\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(json.find("\"sparse_mode\":\"auto\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_options_hash\":\"deadbeef00000000\""),
            std::string::npos);
  EXPECT_NE(json.find("\"binary\":\"test_bin\""), std::string::npos);
}

TEST(RunManifestTest, BuildTypeDefaultsFromCompileMode) {
  RunManifest m;
  const std::string json = m.ToJson();
  const std::string expect =
      std::string("\"build_type\":\"") + BuildTypeName() + "\"";
  EXPECT_NE(json.find(expect), std::string::npos) << json;
}

TEST(RunManifestTest, MakeRunManifestReflectsTopologyAndOptions) {
  Topology topo(2, 8, Wrap::kMesh);
  EngineOptions opts;
  opts.sparse = SparseMode::kNever;
  const RunManifest m = MakeRunManifest(topo, opts);
  EXPECT_EQ(m.d, 2);
  EXPECT_EQ(m.n, 8);
  EXPECT_FALSE(m.torus);
  EXPECT_EQ(m.sparse_mode, "never");
  EXPECT_EQ(m.engine_options_hash.size(), 16u);  // 64-bit FNV-1a hex
  // The hash keys on routing-relevant options: flipping one changes it.
  EngineOptions other = opts;
  other.step_cap = 12345;
  EXPECT_NE(MakeRunManifest(topo, other).engine_options_hash,
            m.engine_options_hash);
  // ...and observability hooks do not change it (zero-cost contract: the
  // same routing run hashes the same with and without sinks).
  EngineOptions probed = opts;
  CongestionTrace trace;
  MetricsRegistry metrics;
  probed.probe = &trace;
  probed.metrics = &metrics;
  EXPECT_EQ(MakeRunManifest(topo, probed).engine_options_hash,
            m.engine_options_hash);
}

// ------------------------------------------------------------ MetricsRegistry

TEST(MetricsRegistryTest, CounterAccumulatesAcrossShards) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& c = reg.counter("widgets");
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Total(), 6);
  // Lookup by the same name returns the same counter.
  EXPECT_EQ(&reg.counter("widgets"), &c);
  EXPECT_NE(&reg.counter("other"), &c);
}

TEST(MetricsRegistryTest, CounterIsThreadSafe) {
  MetricsRegistry reg;
  MetricsRegistry::Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Total(), kThreads * kAddsPerThread);
}

TEST(MetricsRegistryTest, GaugeMaxIsMonotone) {
  MetricsRegistry reg;
  MetricsRegistry::Gauge& g = reg.gauge("peak");
  g.Max(5);
  g.Max(3);
  EXPECT_EQ(g.Value(), 5);
  g.Max(9);
  EXPECT_EQ(g.Value(), 9);
  g.Set(1);  // Set is last-write-wins, not monotone
  EXPECT_EQ(g.Value(), 1);
}

TEST(MetricsRegistryTest, HistogramMergesAndQuantiles) {
  MetricsRegistry reg;
  MetricsRegistry::Hist& h = reg.histogram("lat");
  for (std::int64_t v = 1; v <= 100; ++v) h.Add(v);
  QuantileHistogram extra;
  extra.Add(1000);
  h.Merge(extra);
  const QuantileHistogram merged = h.Merged();
  EXPECT_EQ(merged.count(), 101);
  EXPECT_EQ(merged.max(), 1000);
  EXPECT_GE(merged.Quantile(0.5), 40);
  EXPECT_LE(merged.Quantile(0.5), 60);
}

TEST(MetricsRegistryTest, WriteJsonEmitsAllThreeKinds) {
  MetricsRegistry reg;
  reg.counter("c1").Add(7);
  reg.gauge("g1").Set(3);
  reg.histogram("h1").Add(5);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c1\":7}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g1\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"h1\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, EngineRecordsRouteMetrics) {
  Topology topo(2, 8, Wrap::kMesh);
  MetricsRegistry metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(5);
  auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  RouteResult r = engine.Route(net);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(metrics.counter("engine.routes").Total(), 1);
  EXPECT_EQ(metrics.counter("engine.steps").Total(), r.steps);
  EXPECT_EQ(metrics.counter("engine.moves").Total(), r.moves);
  EXPECT_EQ(metrics.gauge("engine.max_queue").Value(), r.max_queue);
  // The manifest rides on every RouteResult and lands in its JSON.
  ASSERT_NE(r.manifest, nullptr);
  EXPECT_EQ(r.manifest->d, 2);
  EXPECT_NE(r.ToJson().find("\"manifest\":"), std::string::npos);
}

// ----------------------------------------------------------- ChromeTraceWriter

RunManifest TestManifest() {
  RunManifest m;
  m.d = 2;
  m.n = 8;
  m.binary = "test_chrome_trace";
  return m;
}

std::size_t CountOccurrences(const std::string& hay, const std::string& pin) {
  std::size_t count = 0;
  for (std::size_t pos = hay.find(pin); pos != std::string::npos;
       pos = hay.find(pin, pos + pin.size())) {
    ++count;
  }
  return count;
}

TEST(ChromeTraceWriterTest, ConstructorEmitsTrackGroupMetadata) {
  ChromeTraceWriter writer(TestManifest());
  EXPECT_EQ(writer.event_count(), 5u);  // one process_name per track group
  std::ostringstream os;
  writer.Write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"phases (wall clock)\""), std::string::npos);
  EXPECT_NE(out.find("\"engine counters\""), std::string::npos);
  EXPECT_NE(out.find("\"thread pool\""), std::string::npos);
  EXPECT_NE(out.find("\"packet journeys\""), std::string::npos);
}

TEST(ChromeTraceWriterTest, ManifestIsEmbeddedInMetadata) {
  ChromeTraceWriter writer(TestManifest());
  std::ostringstream os;
  writer.Write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"metadata\": {\"manifest\": "), std::string::npos);
  EXPECT_NE(out.find("\"binary\":\"test_chrome_trace\""), std::string::npos);
}

TEST(ChromeTraceWriterTest, SpanTreeEmitsMatchedPairsOnBothClocks) {
  TraceContext ctx;
  {
    Span outer = ctx.Open("sort");
    outer.RecordRouting(10, 100, 3, 0);
    Span inner = ctx.Open("route");
    inner.RecordRouting(20, 50, 2, 0);
  }
  ChromeTraceWriter writer(TestManifest());
  writer.AddSpanTree(ctx);
  std::ostringstream os;
  writer.Write(os);
  const std::string out = os.str();
  // 2 spans x 2 clock groups -> 4 B and 4 E events, plus matched counts.
  EXPECT_EQ(CountOccurrences(out, "\"ph\":\"B\""), 4u);
  EXPECT_EQ(CountOccurrences(out, "\"ph\":\"E\""), 4u);
  // Top-level span: B+E on 2 clock groups + a thread_name metadata event
  // per clock group naming its track. Nested span: just the B/E pairs.
  EXPECT_EQ(CountOccurrences(out, "\"name\":\"sort\""), 6u);
  EXPECT_EQ(CountOccurrences(out, "\"name\":\"route\""), 4u);
}

TEST(ChromeTraceWriterTest, CountersCreateOneTrackPerSeries) {
  CongestionTrace trace;
  StepSnapshot snap;
  const std::int64_t dim_moves[4] = {3, 1, 2, 0};
  snap.step = 1;
  snap.in_flight = 9;
  snap.arrivals = 1;
  snap.moves = 6;
  snap.dims = 2;
  snap.dim_dir_moves = dim_moves;
  trace.OnStep(snap);
  ChromeTraceWriter writer(TestManifest());
  writer.AddCounters(trace);
  // in_flight, arrivals, moves, queue_p50/p99/max, injected + 4 dim tracks.
  EXPECT_GE(writer.counter_track_count(), 6u);
  std::ostringstream os;
  writer.Write(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"in_flight\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"moves.dim0-\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"moves.dim1+\""), std::string::npos);
}

TEST(ChromeTraceWriterTest, PublicAddCounterFeedsNamedTrack) {
  ChromeTraceWriter writer(TestManifest());
  writer.AddCounter("replayed", 1.0, 10);
  writer.AddCounter("replayed", 2.0, 20);
  EXPECT_EQ(writer.counter_track_count(), 1u);
  std::ostringstream os;
  writer.Write(os);
  EXPECT_NE(os.str().find("\"replayed\":20"), std::string::npos);
}

TEST(ChromeTraceWriterTest, WorkerActivityEmitsPerLaneTracks) {
  ThreadPool pool(2);
  ThreadPoolActivity activity;
  pool.set_activity(&activity);
  std::atomic<int> sum{0};
  pool.ParallelFor(1000, [&sum](std::int64_t begin, std::int64_t end) {
    sum.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
  });
  pool.set_activity(nullptr);
  ChromeTraceWriter writer(TestManifest());
  writer.AddWorkerActivity(activity);
  std::ostringstream os;
  writer.Write(os);
  const std::string out = os.str();
  EXPECT_GE(CountOccurrences(out, "\"ph\":\"X\""), 1u);
  EXPECT_NE(out.find("\"name\":\"worker 1\""), std::string::npos);
  // X events carry a duration, never negative.
  EXPECT_EQ(out.find("\"dur\":-"), std::string::npos);
}

// One trace through every event kind, with every host-dependent input (wall
// stamps, perf deltas, dispatch times, build type) pinned, so Write()'s
// exact bytes can be compared against a digest: a serializer change that
// moves one byte of any event kind fails here.
TEST(ChromeTraceWriterTest, WriteBytesArePinned) {
  RunManifest manifest = TestManifest();
  manifest.build_type = "release";
  ChromeTraceWriter writer(manifest);

  // Span tree: two top-level phases, a nested span, perf args on two spans
  // (one with every counter, one whose ipc is unavailable).
  TraceContext ctx;
  {
    Span outer = ctx.Open("sort \"outer\"\t\\phase");
    outer.RecordRouting(10, 100, 3, 0);
    {
      Span inner = ctx.Open("route");
      inner.RecordRouting(20, 50, 2, 1);
    }
    outer.RecordLocal(5, 1);
  }
  {
    Span verify = ctx.Open("verify\x01");
    verify.RecordLocal(7, 0);
  }
  // A live context stamps wall time and hardware counters from the host;
  // overwrite both with fixed values.
  auto& nodes = const_cast<std::vector<TraceContext::Node>&>(ctx.nodes());
  ASSERT_EQ(nodes.size(), 4u);
  nodes[1].begin_ms = 0.0;
  nodes[1].end_ms = 1.0 / 3.0;
  nodes[2].begin_ms = 0.125;
  nodes[2].end_ms = 0.25;
  nodes[3].begin_ms = 2.5;
  nodes[3].end_ms = 2.0;  // clamped to begin
  nodes[1].perf.cycles = 123456789;
  nodes[1].perf.instructions = 234567890;
  nodes[1].perf.cache_misses = 345;
  nodes[1].perf.branch_misses = 67;
  nodes[2].perf.instructions = 1000;
  writer.AddSpanTree(ctx);

  // 3D congestion series: six moves.dim* tracks, dense and sparse steps.
  CongestionTrace trace;
  for (std::int64_t step = 1; step <= 5; ++step) {
    const std::int64_t dim_moves[6] = {step, 2 * step, 0, -step, 7, 1 << 20};
    StepSnapshot snap;
    snap.step = step;
    snap.in_flight = 100 - step;
    snap.arrivals = step % 2;
    snap.moves = 3 * step;
    snap.dims = 3;
    snap.dim_dir_moves = dim_moves;
    snap.active_procs = step % 2 == 0 ? -1 : 40 + step;
    snap.injected = step == 3 ? 0 : 2;
    trace.OnStep(snap);
  }
  writer.AddCounters(trace);

  // Worker activity: ParallelFor over 1000 items splits across both workers
  // (lanes 1 and 2); over 3 items it runs on the coordinator (lane 0).
  ThreadPool pool(2);
  ThreadPoolActivity activity;
  pool.set_activity(&activity);
  pool.ParallelFor(1000, [](std::int64_t, std::int64_t) {});
  pool.ParallelFor(3, [](std::int64_t, std::int64_t) {});
  pool.set_activity(nullptr);
  auto& lanes =
      const_cast<std::vector<std::vector<ThreadPoolActivity::Interval>>&>(
          activity.lanes());
  std::int64_t offset_ns = 1500;
  for (auto& lane : lanes) {
    for (ThreadPoolActivity::Interval& iv : lane) {
      iv.t0 = ctx.origin() + std::chrono::nanoseconds(offset_ns);
      iv.t1 = iv.t0 + std::chrono::nanoseconds(offset_ns / 3 + 1);
      offset_ns += 123457;
    }
  }
  writer.AddWorkerActivity(activity);

  writer.AddInstant("fault \"link\" 3", 17.25, ChromeTraceWriter::kPidCounters,
                    2);
  writer.AddAsyncSpan("pkt 7", "journey", 7, 3.0, 11.0,
                      ChromeTraceWriter::kPidJourneys, 1,
                      "{\"src\":3,\"dst\":12}");
  writer.AddAsyncSpan("pkt -2", "journey", -2, 9.5, 4.0,
                      ChromeTraceWriter::kPidJourneys, 1);

  for (const double ts :
       {0.0, -0.0, 0.5, 1e9 + 1, 12345678901.0, 9999999999.0, 1e10, -5.0,
        -9999999999.0, 1e-7, 123.456, 9007199254740993.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    writer.AddCounter("replayed", ts, -7);
  }
  writer.AddCounter("extremes", 1.0, std::numeric_limits<std::int64_t>::min());
  writer.AddCounter("extremes", 2.0, std::numeric_limits<std::int64_t>::max());

  std::ostringstream os;
  writer.Write(os);
  const std::string bytes = os.str();
  std::uint64_t digest = 14695981039346656037ull;
  for (const char c : bytes) FnvMix(digest, static_cast<unsigned char>(c));
  EXPECT_EQ(bytes.size(), 9923u);
  EXPECT_EQ(digest, 3918483428587761842ull) << bytes;
}

// Full pipeline: instrumented engine run -> Chrome trace -> python3 JSON
// parser. The strictest JSON check we can run without new dependencies.
TEST(ChromeTraceWriterTest, EmittedTraceRoundTripsThroughPythonJson) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  Topology topo(2, 8, Wrap::kMesh);
  TraceContext ctx;
  CongestionTrace trace;
  MetricsRegistry metrics;
  EngineOptions opts;
  opts.probe = &trace;
  opts.metrics = &metrics;
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(3);
  auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  RouteResult r;
  {
    Span span = ctx.Open("route \"quoted\" phase");  // exercises escaping
    r = engine.Route(net);
    r.RecordTo(span);
  }
  ASSERT_TRUE(r.completed);

  ChromeTraceWriter writer(MakeRunManifest(topo, opts));
  writer.AddSpanTree(ctx);
  writer.AddCounters(trace);
  const std::string path =
      testing::TempDir() + "/mdmesh_chrome_trace_roundtrip.json";
  writer.WriteFile(path);
  const std::string cmd = "python3 -m json.tool '" + path + "' > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "trace is not valid JSON: " << path;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mdmesh
