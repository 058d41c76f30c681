#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "obs/trace.h"

namespace mdmesh {
namespace {

// Hardware counters are opt-in and environment-dependent (VMs and
// containers routinely deny perf_event_open), so these tests pin the
// *contract*: every consumer keeps working whether Open() succeeds or not,
// and when it succeeds the readings are sane.

TEST(PerfSampleTest, DeltaRespectsUnavailableEvents) {
  PerfSample a, b;
  a.cycles = 1000;
  a.instructions = 2000;
  b.cycles = 400;
  b.instructions = 500;
  // cache/branch misses stay -1 on both sides.
  const PerfSample d = a.DeltaFrom(b);
  EXPECT_EQ(d.cycles, 600);
  EXPECT_EQ(d.instructions, 1500);
  EXPECT_EQ(d.cache_misses, -1);
  EXPECT_EQ(d.branch_misses, -1);
  EXPECT_TRUE(d.any());
  EXPECT_DOUBLE_EQ(d.ipc(), 2.5);
}

TEST(PerfSampleTest, IpcGuardsDegenerateInputs) {
  PerfSample s;
  EXPECT_FALSE(s.any());
  EXPECT_LT(s.ipc(), 0.0);  // nothing available
  s.cycles = 0;
  s.instructions = 10;
  EXPECT_LT(s.ipc(), 0.0);  // zero cycles
  s.cycles = 5;
  s.instructions = -1;
  EXPECT_LT(s.ipc(), 0.0);  // instructions unavailable
}

TEST(PerfCountersTest, SupportedMatchesPlatform) {
#if defined(__linux__)
  EXPECT_TRUE(PerfCounters::Supported());
#else
  EXPECT_FALSE(PerfCounters::Supported());
#endif
}

TEST(PerfCountersTest, OpenEitherWorksOrDegradesWithDiagnostic) {
  PerfCounters pc;
  const bool ok = pc.Open();
  if (!ok) {
    // Denied (non-Linux, hardened kernel, or no PMU): the error says why
    // and reads report "unavailable" instead of garbage.
    EXPECT_FALSE(pc.active());
    EXPECT_FALSE(pc.error().empty());
    EXPECT_FALSE(pc.Read().any());
    return;
  }
  ASSERT_TRUE(pc.active());
  EXPECT_TRUE(pc.error().empty());
  EXPECT_TRUE(pc.Open());  // idempotent
  // Burn some cycles so the totals move; readings are running totals, so
  // a later read of an available event can never be smaller.
  const PerfSample before = pc.Read();
  ASSERT_TRUE(before.any());
  volatile std::int64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const PerfSample after = pc.Read();
  const PerfSample delta = after.DeltaFrom(before);
  if (after.cycles >= 0) {
    EXPECT_GE(delta.cycles, 0);
  }
  if (after.instructions >= 0) {
    EXPECT_GT(delta.instructions, 0);  // the loop retired instructions
  }
  pc.Close();
  EXPECT_FALSE(pc.active());
  EXPECT_FALSE(pc.Read().any());
}

TEST(PerfCountersTest, TraceSpansCarryDeltasWhenEnabled) {
  TraceContext ctx;
  const bool enabled = ctx.EnablePerfCounters();
  {
    Span span = ctx.Open("hot-loop");
    volatile std::int64_t sink = 0;
    for (int i = 0; i < 1000000; ++i) sink = sink + i;
    span.Close();
  }
  ASSERT_EQ(ctx.nodes().size(), 2u);
  const TraceContext::Node& node = ctx.nodes()[1];
  if (enabled) {
    EXPECT_TRUE(ctx.perf_enabled());
    EXPECT_TRUE(node.perf.any());
    // The span JSON gains a perf object.
    EXPECT_NE(ctx.ToJson().find("\"perf\""), std::string::npos);
  } else {
    // Degraded: spans still close, JSON still renders, no perf key.
    EXPECT_FALSE(ctx.perf_enabled());
    EXPECT_FALSE(node.perf.any());
    EXPECT_EQ(ctx.ToJson().find("\"perf\""), std::string::npos);
    EXPECT_FALSE(ctx.perf_error().empty());
  }
  EXPECT_GT(node.end_ms, 0.0);
}

TEST(PerfCountersTest, NestedSpansEachGetTheirOwnDelta) {
  TraceContext ctx;
  if (!ctx.EnablePerfCounters()) {
    GTEST_SKIP() << "perf counters unavailable: " << ctx.perf_error();
  }
  {
    Span outer = ctx.Open("outer");
    volatile std::int64_t sink = 0;
    for (int i = 0; i < 500000; ++i) sink = sink + i;
    {
      Span inner = ctx.Open("inner");
      for (int i = 0; i < 500000; ++i) sink = sink + i;
      inner.Close();
    }
    outer.Close();
  }
  const auto& nodes = ctx.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  const TraceContext::Node& outer = nodes[1];
  const TraceContext::Node& inner = nodes[2];
  ASSERT_TRUE(outer.perf.any());
  ASSERT_TRUE(inner.perf.any());
  // Counters are running thread totals differenced per span, so the outer
  // window contains the inner one event-for-event.
  if (outer.perf.instructions >= 0 && inner.perf.instructions >= 0) {
    EXPECT_GE(outer.perf.instructions, inner.perf.instructions);
  }
}

}  // namespace
}  // namespace mdmesh
