// Tests for the observability layer: JsonWriter, phase spans (TraceContext),
// the engine's StepProbe hook, and the CongestionTrace downsampling ring.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "net/engine.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "routing/permutations.h"
#include "util/rng.h"

namespace mdmesh {
namespace {

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonWriterTest, EscapesEveryControlCharacter) {
  // All of U+0000..U+001F must come out as an escape — either a short form
  // (\n, \t, ...) or \u00XX — never as a raw byte.
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped =
        JsonEscape(std::string(1, static_cast<char>(c)));
    ASSERT_FALSE(escaped.empty()) << "control char " << c;
    EXPECT_EQ(escaped[0], '\\') << "control char " << c;
    for (char out : escaped) {
      EXPECT_GE(static_cast<unsigned char>(out), 0x20u)
          << "raw control byte leaked for char " << c;
    }
  }
}

TEST(JsonWriterTest, MultiByteUtf8PassesThroughUnchanged) {
  // JsonEscape must treat bytes >= 0x80 as opaque payload: 2-, 3-, and
  // 4-byte UTF-8 sequences survive byte-for-byte.
  const std::string two_byte = "caf\xc3\xa9";              // é
  const std::string three_byte = "\xe6\xa1\x81";           // 桁
  const std::string four_byte = "\xf0\x9f\x94\xa5 hot";    // 🔥
  EXPECT_EQ(JsonEscape(two_byte), two_byte);
  EXPECT_EQ(JsonEscape(three_byte), three_byte);
  EXPECT_EQ(JsonEscape(four_byte), four_byte);
  // Mixed: escapes around multi-byte text leave the UTF-8 alone.
  EXPECT_EQ(JsonEscape("\"\xc3\xa9\\"), "\\\"\xc3\xa9\\\\");
}

TEST(JsonWriterTest, WritesNestedStructureWithCommas) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject()
      .Key("steps").Int(190)
      .Key("ok").Bool(true)
      .Key("phases").BeginArray()
          .BeginObject().Key("name").String("phase_a").EndObject()
          .BeginObject().Key("name").String("phase_b").EndObject()
      .EndArray()
      .EndObject();
  EXPECT_TRUE(w.Done());
  EXPECT_EQ(os.str(),
            "{\"steps\":190,\"ok\":true,\"phases\":"
            "[{\"name\":\"phase_a\"},{\"name\":\"phase_b\"}]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginArray()
      .Double(std::numeric_limits<double>::quiet_NaN())
      .Double(std::numeric_limits<double>::infinity())
      .Double(1.5)
      .EndArray();
  EXPECT_TRUE(w.Done());
  EXPECT_EQ(os.str(), "[null,null,1.5]");
}

TEST(JsonWriterTest, DoneIsFalseWhileContainerOpen) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  EXPECT_FALSE(w.Done());
  w.EndObject();
  EXPECT_TRUE(w.Done());
}

// ------------------------------------------------------- Span / TraceContext

TEST(TraceTest, NullSpanIgnoresEverything) {
  Span null_span;
  EXPECT_FALSE(null_span);
  null_span.RecordRouting(10, 100, 3, 1);  // must not crash
  null_span.Close();
  Span from_null_ctx = TraceContext::OpenIf(nullptr, "phase");
  EXPECT_FALSE(from_null_ctx);
}

TEST(TraceTest, SpansNestUnderInnermostOpenSpan) {
  TraceContext ctx;
  EXPECT_TRUE(ctx.empty());
  {
    Span outer = ctx.Open("sort");
    outer.RecordLocal(5, 2);
    {
      Span inner = ctx.Open("route");
      inner.RecordRouting(40, 400, 4, 1);
    }
    Span sibling = ctx.Open("fixup");
    sibling.RecordRouting(8, 16, 2, 0);
  }
  EXPECT_FALSE(ctx.empty());
  const auto& nodes = ctx.nodes();
  ASSERT_EQ(nodes.size(), 4u);  // virtual root + 3 spans
  EXPECT_EQ(nodes[1].name, "sort");
  EXPECT_EQ(nodes[1].parent, 0u);
  ASSERT_EQ(nodes[1].children.size(), 2u);
  EXPECT_EQ(nodes[nodes[1].children[0]].name, "route");
  EXPECT_EQ(nodes[nodes[1].children[1]].name, "fixup");

  const SpanStats totals = ctx.Totals();
  EXPECT_EQ(totals.steps, 48);
  EXPECT_EQ(totals.local_steps, 5);
  EXPECT_EQ(totals.moves, 416);
  EXPECT_EQ(totals.max_queue, 4);
  EXPECT_EQ(totals.max_overshoot, 1);
}

TEST(TraceTest, RecordMergesCountersAndMaxima) {
  TraceContext ctx;
  {
    Span span = ctx.Open("phase");
    span.RecordRouting(10, 100, 3, 2);
    span.RecordRouting(20, 50, 5, 1);
  }
  const SpanStats& stats = ctx.nodes()[1].stats;
  EXPECT_EQ(stats.steps, 30);    // counters add
  EXPECT_EQ(stats.moves, 150);
  EXPECT_EQ(stats.max_queue, 5);  // maxima take the max
  EXPECT_EQ(stats.max_overshoot, 2);
}

TEST(TraceTest, CloseIsIdempotentAndStampsWallClock) {
  TraceContext ctx;
  Span span = ctx.Open("phase");
  span.Close();
  span.Close();  // second close must be a no-op
  EXPECT_GE(ctx.nodes()[1].stats.wall_ms, 0.0);
}

TEST(TraceTest, SpansCarryWallClockBeginEndTimestamps) {
  TraceContext ctx;
  {
    Span outer = ctx.Open("outer");
    Span inner = ctx.Open("inner");
  }
  const auto& nodes = ctx.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_GE(nodes[i].begin_ms, 0.0);
    EXPECT_GE(nodes[i].end_ms, nodes[i].begin_ms);
  }
  // The child opened after and closed before its parent.
  EXPECT_LE(nodes[1].begin_ms, nodes[2].begin_ms);
  EXPECT_GE(nodes[1].end_ms, nodes[2].end_ms);
}

TEST(TraceTest, OpenSpanHasNegativeEndUntilClosed) {
  TraceContext ctx;
  Span span = ctx.Open("phase");
  EXPECT_LT(ctx.nodes()[1].end_ms, 0.0);  // still open
  span.Close();
  EXPECT_GE(ctx.nodes()[1].end_ms, 0.0);
}

TEST(TraceTest, StepClockAdvancesWithRecordedSteps) {
  TraceContext ctx;
  EXPECT_EQ(ctx.step_cursor(), 0);
  {
    Span a = ctx.Open("a");
    a.RecordRouting(40, 400, 4, 0);
  }
  EXPECT_EQ(ctx.step_cursor(), 40);
  {
    Span b = ctx.Open("b");
    b.RecordLocal(5, 2);
    b.RecordRouting(10, 30, 2, 0);
  }
  EXPECT_EQ(ctx.step_cursor(), 55);  // 40 + 5 local + 10 routing
  const auto& nodes = ctx.nodes();
  // Span extents on the step axis: [0,40) for a, [40,55) for b.
  EXPECT_EQ(nodes[1].begin_steps, 0);
  EXPECT_EQ(nodes[1].end_steps, 40);
  EXPECT_EQ(nodes[2].begin_steps, 40);
  EXPECT_EQ(nodes[2].end_steps, 55);
}

TEST(TraceTest, ToJsonIncludesTimestampKeys) {
  TraceContext ctx;
  {
    Span span = ctx.Open("phase");
    span.RecordRouting(10, 100, 3, 0);
  }
  const std::string json = ctx.ToJson();
  EXPECT_NE(json.find("\"begin_ms\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"end_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"begin_steps\":0"), std::string::npos);
  EXPECT_NE(json.find("\"end_steps\":10"), std::string::npos);
}

TEST(TraceTest, ClearResetsStepCursor) {
  TraceContext ctx;
  {
    Span span = ctx.Open("phase");
    span.RecordRouting(10, 100, 3, 0);
  }
  ctx.Clear();
  EXPECT_EQ(ctx.step_cursor(), 0);
}

TEST(TraceTest, RenderTreeShowsNamesAndStepsOverD) {
  TraceContext ctx;
  {
    Span outer = ctx.Open("two_phase");
    Span inner = ctx.Open("phase_a_route");
    inner.RecordRouting(95, 500, 4, 0);
  }
  const std::string tree = ctx.RenderTree(/*diameter=*/190);
  EXPECT_NE(tree.find("two_phase"), std::string::npos) << tree;
  EXPECT_NE(tree.find("phase_a_route"), std::string::npos);
  EXPECT_NE(tree.find("0.50"), std::string::npos);  // 95 / 190 steps/D
  // Without a diameter the steps/D column disappears.
  EXPECT_EQ(ctx.RenderTree().find("steps/D"), std::string::npos);
}

TEST(TraceTest, ToJsonSerializesTheSpanTree) {
  TraceContext ctx;
  {
    Span outer = ctx.Open("sort");
    Span inner = ctx.Open("local-sort");
    inner.RecordLocal(7, 1);
  }
  const std::string json = ctx.ToJson();
  EXPECT_NE(json.find("\"name\":\"sort\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"local-sort\""), std::string::npos);
  EXPECT_NE(json.find("\"local_steps\":7"), std::string::npos);
  EXPECT_NE(json.find("\"children\":"), std::string::npos);
}

TEST(TraceTest, ClearDropsRecordedSpans) {
  TraceContext ctx;
  { Span span = ctx.Open("phase"); }
  EXPECT_FALSE(ctx.empty());
  ctx.Clear();
  EXPECT_TRUE(ctx.empty());
  { Span span = ctx.Open("again"); }
  EXPECT_EQ(ctx.nodes()[1].name, "again");
}

// ----------------------------------------------------------------- StepProbe

// Records every snapshot so tests can assert per-step invariants.
class RecordingProbe : public StepProbe {
 public:
  struct Step {
    std::int64_t step, in_flight, arrivals, moves;
    std::vector<std::int64_t> dim_dir_moves;
    std::int64_t hist_total = -1;
  };

  bool WantsQueueHistogram() const override { return want_hist_; }
  void OnStep(const StepSnapshot& snap) override {
    Step s{snap.step, snap.in_flight, snap.arrivals, snap.moves, {}, -1};
    if (snap.dim_dir_moves != nullptr) {
      s.dim_dir_moves.assign(snap.dim_dir_moves,
                             snap.dim_dir_moves + 2 * snap.dims);
    }
    if (snap.queue_hist != nullptr) s.hist_total = snap.queue_hist->total();
    steps.push_back(std::move(s));
  }

  bool want_hist_ = true;
  std::vector<Step> steps;
};

RouteResult RouteRandomPermutation(const Topology& topo, StepProbe* probe,
                                   std::uint64_t seed) {
  EngineOptions opts;
  if (probe != nullptr) opts.probes = {probe};
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(seed);
  auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  return engine.Route(net);
}

TEST(StepProbeTest, PerStepInvariantsHoldForAPermutation) {
  Topology topo(2, 8, Wrap::kMesh);
  RecordingProbe probe;
  RouteResult r = RouteRandomPermutation(topo, &probe, 7);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(static_cast<std::int64_t>(probe.steps.size()), r.steps);

  std::int64_t arrivals_sum = 0;
  std::int64_t moves_sum = 0;
  std::int64_t prev_in_flight = topo.size() + 1;
  for (std::size_t i = 0; i < probe.steps.size(); ++i) {
    const auto& s = probe.steps[i];
    EXPECT_EQ(s.step, static_cast<std::int64_t>(i) + 1);  // 1-based, contiguous
    arrivals_sum += s.arrivals;
    moves_sum += s.moves;
    // All packets are injected before step 1, so in-flight only shrinks.
    EXPECT_LE(s.in_flight, prev_in_flight);
    prev_in_flight = s.in_flight;
    // Per-dimension directed-link moves partition the step's total moves.
    ASSERT_EQ(s.dim_dir_moves.size(), 4u);  // d=2 -> 2*d directed classes
    std::int64_t dim_sum = 0;
    for (std::int64_t v : s.dim_dir_moves) {
      EXPECT_GE(v, 0);
      dim_sum += v;
    }
    EXPECT_EQ(dim_sum, s.moves);
    // The histogram covers every processor's queue, exactly once.
    EXPECT_EQ(s.hist_total, topo.size());
  }
  // Arrivals across the run account for every packet that had to move.
  std::int64_t displaced = 0;
  {
    Rng rng(7);
    auto dest = RandomPermutation(topo, rng);
    for (ProcId p = 0; p < topo.size(); ++p) {
      if (dest[static_cast<std::size_t>(p)] != p) ++displaced;
    }
  }
  EXPECT_EQ(arrivals_sum, displaced);
  EXPECT_EQ(probe.steps.back().in_flight, 0);
  EXPECT_EQ(moves_sum, r.moves);
}

TEST(StepProbeTest, HistogramIsOmittedWhenProbeDeclines) {
  Topology topo(2, 4, Wrap::kMesh);
  RecordingProbe probe;
  probe.want_hist_ = false;
  RouteResult r = RouteRandomPermutation(topo, &probe, 3);
  ASSERT_TRUE(r.completed);
  for (const auto& s : probe.steps) EXPECT_EQ(s.hist_total, -1);
}

TEST(StepProbeTest, ProbeDoesNotChangeRoutingOutcome) {
  Topology topo(2, 8, Wrap::kMesh);
  RecordingProbe probe;
  RouteResult with_probe = RouteRandomPermutation(topo, &probe, 11);
  RouteResult without = RouteRandomPermutation(topo, nullptr, 11);
  EXPECT_EQ(with_probe.steps, without.steps);
  EXPECT_EQ(with_probe.moves, without.moves);
  EXPECT_EQ(with_probe.max_queue, without.max_queue);
}

// ----------------------------------------------------------- CongestionTrace

StepSnapshot SyntheticSnapshot(std::int64_t step,
                               const std::int64_t* dim_moves) {
  StepSnapshot snap;
  snap.step = step;
  snap.in_flight = 100 - step;
  snap.arrivals = 1;
  snap.moves = dim_moves[0] + dim_moves[1] + dim_moves[2] + dim_moves[3];
  snap.dims = 2;
  snap.dim_dir_moves = dim_moves;
  return snap;
}

TEST(CongestionTraceTest, StaysWithinCapacityAndDoublesStride) {
  CongestionTrace trace(/*capacity=*/8);
  const std::int64_t dim_moves[4] = {3, 1, 2, 0};
  for (std::int64_t step = 1; step <= 1000; ++step) {
    trace.OnStep(SyntheticSnapshot(step, dim_moves));
  }
  EXPECT_LT(trace.samples().size(), 8u);
  EXPECT_GE(trace.samples().size(), 2u);
  EXPECT_EQ(trace.total_steps(), 1000);
  // 1000 steps into < 8 slots needs stride >= 128 = 2^7.
  EXPECT_GE(trace.stride(), 128);
  // Retained steps are strictly increasing and span the time axis: the last
  // sample is within one stride of the end.
  std::int64_t prev = 0;
  for (const auto& s : trace.samples()) {
    EXPECT_GT(s.step, prev);
    prev = s.step;
  }
  EXPECT_GT(trace.samples().back().step, 1000 - trace.stride());
}

TEST(CongestionTraceTest, DownsamplingKeepsFirstSampleIntact) {
  // Regression: the in-place downsample used to self-move samples_[0],
  // emptying its dim_dir_moves vector.
  CongestionTrace trace(/*capacity=*/4);
  const std::int64_t dim_moves[4] = {5, 4, 3, 2};
  for (std::int64_t step = 1; step <= 64; ++step) {
    trace.OnStep(SyntheticSnapshot(step, dim_moves));
  }
  ASSERT_FALSE(trace.samples().empty());
  const auto& first = trace.samples().front();
  EXPECT_EQ(first.step, 1);
  ASSERT_EQ(first.dim_dir_moves.size(), 4u);
  EXPECT_EQ(first.dim_dir_moves[0], 5);
  EXPECT_EQ(first.dim_dir_moves[3], 2);
}

TEST(CongestionTraceTest, AccumulatesStepsAcrossRouteCalls) {
  Topology topo(2, 8, Wrap::kMesh);
  CongestionTrace trace;
  RouteResult first = RouteRandomPermutation(topo, &trace, 5);
  const std::int64_t after_first = trace.total_steps();
  EXPECT_EQ(after_first, first.steps);
  RouteResult second = RouteRandomPermutation(topo, &trace, 6);
  EXPECT_EQ(trace.total_steps(), first.steps + second.steps);
  // Cumulative `step` keeps growing while `run_step` restarts per Route call.
  const auto& samples = trace.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.back().step, trace.total_steps());
  EXPECT_LE(samples.back().run_step, second.steps);
}

TEST(CongestionTraceTest, WriteCsvEmitsHeaderAndOneRowPerSample) {
  Topology topo(2, 8, Wrap::kMesh);
  CongestionTrace trace;
  RouteResult r = RouteRandomPermutation(topo, &trace, 9);
  ASSERT_TRUE(r.completed);
  std::ostringstream os;
  trace.WriteCsv(os);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header,
            "step,run_step,in_flight,arrivals,moves,queue_p50,queue_p99,"
            "queue_max,dim0_dec,dim0_inc,dim1_dec,dim1_inc,active_procs,"
            "injected");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, trace.samples().size());
}

TEST(CongestionTraceTest, ClearResetsToInitialState) {
  CongestionTrace trace(4);
  const std::int64_t dim_moves[4] = {1, 1, 1, 1};
  for (std::int64_t step = 1; step <= 32; ++step) {
    trace.OnStep(SyntheticSnapshot(step, dim_moves));
  }
  trace.Clear();
  EXPECT_TRUE(trace.samples().empty());
  EXPECT_EQ(trace.stride(), 1);
  EXPECT_EQ(trace.total_steps(), 0);
  trace.OnStep(SyntheticSnapshot(1, dim_moves));
  ASSERT_EQ(trace.samples().size(), 1u);
  EXPECT_EQ(trace.samples().front().step, 1);
}

}  // namespace
}  // namespace mdmesh
