// Dynamic workload subsystem: traffic patterns, the open-loop injection
// driver, and the saturation search. The load-bearing contract is
// determinism — an injector-driven run must produce identical results for
// any thread count and either engine traversal mode — plus conservation
// (drained runs deliver exactly what was offered) and the latency lower
// bound (no packet beats its source-destination distance).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "net/engine.h"
#include "net/network.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/journey.h"
#include "obs/probe.h"
#include "obs/publisher.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "routing/permutations.h"
#include "util/thread_pool.h"
#include "workload/driver.h"
#include "workload/patterns.h"
#include "run_digest.h"

namespace mdmesh {
namespace {

// ---------------------------------------------------------------------------
// Patterns

TEST(Patterns, StructuredKindsArePermutations) {
  for (const auto& spec :
       {std::pair<int, int>{2, 8}, {3, 4}, {2, 5}, {3, 7}, {4, 3}}) {
    Topology topo(spec.first, spec.second, Wrap::kMesh);
    for (PatternKind kind :
         {PatternKind::kBitReversal, PatternKind::kShuffle,
          PatternKind::kButterfly, PatternKind::kDiagonal,
          PatternKind::kTranspose, PatternKind::kReversal}) {
      TrafficPattern pat(topo, kind, 1);
      ASSERT_TRUE(pat.fixed());
      EXPECT_TRUE(IsPermutation(pat.map()))
          << PatternName(kind) << " on d=" << spec.first
          << " n=" << spec.second;
    }
  }
}

TEST(Patterns, BitReversalIsInvolutionForAllSides) {
  for (int n : {4, 5, 6, 7, 8, 9, 16}) {
    Topology topo(2, n, Wrap::kMesh);
    const std::vector<ProcId> rev = BitReversalPermutation(topo);
    ASSERT_TRUE(IsPermutation(rev)) << "n=" << n;
    for (ProcId p = 0; p < topo.size(); ++p) {
      EXPECT_EQ(rev[static_cast<std::size_t>(rev[static_cast<std::size_t>(p)])],
                p)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Patterns, BitReversalMatchesClassicOnPowerOfTwoSide) {
  // n = 8: coordinate bits fully reverse (1 -> 4, 3 -> 6, ...).
  Topology topo(1, 8, Wrap::kMesh);
  const std::vector<ProcId> rev = BitReversalPermutation(topo);
  const std::vector<ProcId> want = {0, 4, 2, 6, 1, 5, 3, 7};
  EXPECT_EQ(rev, want);
}

TEST(Patterns, ShuffleRotatesCoordinates) {
  Topology topo(3, 4, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kShuffle, 1);
  Rng rng(1);
  Point c{};
  c[0] = 1;
  c[1] = 2;
  c[2] = 3;
  Point want{};
  want[0] = 2;
  want[1] = 3;
  want[2] = 1;
  EXPECT_EQ(pat.Draw(topo.Id(c), rng), topo.Id(want));
}

TEST(Patterns, HotSpotRespectsSkewBounds) {
  Topology topo(2, 16, Wrap::kMesh);
  PatternOptions opts;
  opts.hot_count = 2;
  opts.hot_skew = 1.0;  // every packet targets the hot set
  TrafficPattern pat(topo, PatternKind::kHotSpot, 7, opts);
  EXPECT_FALSE(pat.fixed());
  Rng rng(3);
  std::set<ProcId> seen;
  for (int i = 0; i < 256; ++i) seen.insert(pat.Draw(0, rng));
  EXPECT_LE(seen.size(), 2u);
}

TEST(Patterns, HotSpotIsSeedDeterministic) {
  Topology topo(2, 16, Wrap::kMesh);
  TrafficPattern a(topo, PatternKind::kHotSpot, 42);
  TrafficPattern b(topo, PatternKind::kHotSpot, 42);
  Rng ra(5), rb(5);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(a.Draw(i % topo.size(), ra), b.Draw(i % topo.size(), rb));
  }
}

TEST(Patterns, ParseRoundTripsEveryName) {
  for (PatternKind kind : AllPatterns()) {
    PatternKind parsed{};
    ASSERT_TRUE(ParsePattern(PatternName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PatternKind dummy{};
  EXPECT_FALSE(ParsePattern("nonsense", &dummy));
}

TEST(Patterns, HRelationDegreesAreExact) {
  Topology topo(2, 6, Wrap::kMesh);
  Rng rng(11);
  const auto rel = HRelation(topo, 3, rng);
  ASSERT_EQ(rel.size(), static_cast<std::size_t>(3 * topo.size()));
  std::vector<int> out(static_cast<std::size_t>(topo.size()), 0);
  std::vector<int> in(static_cast<std::size_t>(topo.size()), 0);
  for (const auto& [src, dst] : rel) {
    ++out[static_cast<std::size_t>(src)];
    ++in[static_cast<std::size_t>(dst)];
  }
  for (ProcId p = 0; p < topo.size(); ++p) {
    EXPECT_EQ(out[static_cast<std::size_t>(p)], 3);
    EXPECT_EQ(in[static_cast<std::size_t>(p)], 3);
  }
}

TEST(Patterns, LKRelationBoundsDegrees) {
  Topology topo(2, 5, Wrap::kMesh);
  Rng rng(13);
  const std::int64_t l = 2, k = 4;
  const auto rel = LKRelation(topo, l, k, rng);
  ASSERT_EQ(rel.size(), static_cast<std::size_t>(topo.size() * std::min(l, k)));
  std::vector<int> out(static_cast<std::size_t>(topo.size()), 0);
  std::vector<int> in(static_cast<std::size_t>(topo.size()), 0);
  for (const auto& [src, dst] : rel) {
    ++out[static_cast<std::size_t>(src)];
    ++in[static_cast<std::size_t>(dst)];
    EXPECT_LE(out[static_cast<std::size_t>(src)], l);
    EXPECT_LE(in[static_cast<std::size_t>(dst)], k);
  }
}

// ---------------------------------------------------------------------------
// Open-loop driver

/// A full fingerprint of one run: every delivery (packet id, injection
/// step, delivery step) in callback order, plus the aggregate counters.
struct RunTrace {
  std::vector<std::tuple<std::int64_t, std::int64_t, std::int32_t>> deliveries;
  WorkloadResult result;

  bool operator==(const RunTrace& other) const {
    return deliveries == other.deliveries &&
           result.offered == other.result.offered &&
           result.delivered == other.result.delivered &&
           result.route.steps == other.result.route.steps &&
           result.route.moves == other.result.route.moves &&
           result.route.detours == other.result.route.detours &&
           result.latency_count == other.result.latency_count &&
           result.latency_p99 == other.result.latency_p99;
  }
};

/// Records every OnDeliver on top of the standard driver.
class RecordingInjector final : public StepInjector {
 public:
  RecordingInjector(OpenLoopInjector* inner, RunTrace* trace)
      : inner_(inner), trace_(trace) {}

  InjectAction Inject(std::int64_t step,
                      std::vector<std::pair<ProcId, Packet>>* out) override {
    return inner_->Inject(step, out);
  }
  void OnDeliver(const Packet& pkt, std::int64_t step) override {
    trace_->deliveries.emplace_back(pkt.id, pkt.tag, pkt.arrived);
    inner_->OnDeliver(pkt, step);
  }

 private:
  OpenLoopInjector* inner_;
  RunTrace* trace_;
};

/// `probe` and `journeys` are optional observers; `faults` an optional plan.
RunTrace RunTraced(const Topology& topo, const TrafficPattern& pattern,
                   const DriverOptions& dopts, SparseMode mode,
                   ThreadPool* pool, const FaultPlan* faults = nullptr,
                   StepProbe* probe = nullptr,
                   JourneyTracer* journeys = nullptr) {
  RunTrace trace;
  OpenLoopInjector inner(topo, pattern, dopts);
  RecordingInjector rec(&inner, &trace);
  EngineOptions eopts;
  eopts.sparse = mode;
  eopts.pool = pool;
  eopts.injector = &rec;
  eopts.faults = faults;
  eopts.probe = probe;
  eopts.journeys = journeys;
  Engine engine(topo, eopts);
  Network net(topo);
  trace.result.route = engine.Route(net);
  trace.result.offered = inner.offered();
  trace.result.delivered = inner.delivered();
  trace.result.latency_count = inner.latency().count();
  trace.result.latency_p99 = inner.latency().Quantile(0.99);
  trace.result.delivery_hash = inner.delivery_hash();
  return trace;
}

/// A run pinned as constants, measured on the engine whose open-loop runs
/// stepped through a separate unfused bid, commit and retire loop: the
/// delivery hash, totals, a 1000-per-mille journey log digest, and one
/// CongestionTrace digest per traversal mode (kNever, kAlways, kAuto —
/// the active-set column differs between them).
struct PinnedOpenLoopRun {
  std::uint64_t delivery_hash;
  std::int64_t steps;
  std::int64_t moves;
  std::int64_t detours;
  std::uint64_t journey_hash;
  std::uint64_t trace_hash[3];
};

/// Every (traversal mode, worker count) pair must reproduce the serial
/// dense run, and the traced runs must reproduce the pinned digests.
void ExpectDeterministicOpenLoop(const Topology& topo,
                                 const TrafficPattern& pat,
                                 const DriverOptions& dopts,
                                 const FaultPlan* faults,
                                 const PinnedOpenLoopRun& pin) {
  ThreadPool serial(1);
  ThreadPool four(4);
  const RunTrace base =
      RunTraced(topo, pat, dopts, SparseMode::kNever, &serial, faults);
  ASSERT_GT(base.result.offered, 0);
  EXPECT_EQ(base.result.offered, base.result.delivered);

  const SparseMode modes[] = {SparseMode::kNever, SparseMode::kAlways,
                              SparseMode::kAuto};
  for (SparseMode mode : modes) {
    for (ThreadPool* pool : {&serial, &four}) {
      const RunTrace other = RunTraced(topo, pat, dopts, mode, pool, faults);
      EXPECT_TRUE(base == other)
          << "mode=" << static_cast<int>(mode)
          << " workers=" << pool->workers();
    }
  }
  for (int m = 0; m < 3; ++m) {
    SCOPED_TRACE(std::string("traced, sparse=") + SparseModeName(modes[m]));
    CongestionTrace probe;
    JourneyTracer::Options jopts;
    jopts.sample_rate = 1.0;
    JourneyTracer journeys(jopts);
    const RunTrace traced =
        RunTraced(topo, pat, dopts, modes[m], &four, faults, &probe, &journeys);
    ASSERT_NE(traced.result.route.journeys, nullptr);
    const std::uint64_t journey_hash =
        JourneyDigest(*traced.result.route.journeys);
    const std::uint64_t trace_hash = TraceDigest(probe);
    char got[160];
    std::snprintf(got, sizeof(got),
                  "got {0x%016llxull, %lld, %lld, %lld, 0x%016llxull, "
                  "trace 0x%016llxull}",
                  static_cast<unsigned long long>(traced.result.delivery_hash),
                  static_cast<long long>(traced.result.route.steps),
                  static_cast<long long>(traced.result.route.moves),
                  static_cast<long long>(traced.result.route.detours),
                  static_cast<unsigned long long>(journey_hash),
                  static_cast<unsigned long long>(trace_hash));
    SCOPED_TRACE(got);
    EXPECT_EQ(traced.result.delivery_hash, pin.delivery_hash);
    EXPECT_EQ(traced.result.route.steps, pin.steps);
    EXPECT_EQ(traced.result.route.moves, pin.moves);
    EXPECT_EQ(traced.result.route.detours, pin.detours);
    EXPECT_EQ(journey_hash, pin.journey_hash);
    EXPECT_EQ(trace_hash, pin.trace_hash[m]);
    EXPECT_TRUE(traced == base);
  }
}

/// Faulted torus: dead link pairs force detours and wrong-way locks, and
/// flaps spread across the run exercise the per-step fault schedule.
FaultPlan OpenLoopDetourPlan(const Topology& topo) {
  FaultPlan plan(topo);
  plan.KillLinkPair(0, 0, 1);
  plan.KillLinkPair(topo.size() / 2, 1, 0);
  plan.KillLinkPair(topo.size() / 3, 0, 0);
  plan.AddFlap(1, 0, 0, /*start=*/2, /*duration=*/6);
  plan.AddFlap(topo.size() / 3, 1, 1, /*start=*/25, /*duration=*/9);
  plan.AddFlap(topo.size() - 2, 1, 0, /*start=*/40, /*duration=*/3);
  plan.AddFlap(topo.size() / 4, 0, 1, /*start=*/61, /*duration=*/12);
  return plan;
}

TEST(OpenLoop, DeterministicAcrossThreadsAndModes) {
  Topology topo(3, 6, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 21);
  DriverOptions dopts;
  dopts.rate = 0.08;
  dopts.warmup_steps = 20;
  dopts.measure_steps = 60;
  dopts.drain = true;
  dopts.seed = 99;
  ExpectDeterministicOpenLoop(
      topo, pat, dopts, nullptr,
      {0x7d119bd5183579edull, 90, 7968, 0, 0x7f5ea51442cbacd1ull,
       {0x4f8924a1db059374ull, 0x7052491ab452c648ull, 0x39f697b4407fbfcbull}});

  Topology torus(2, 8, Wrap::kTorus);
  TrafficPattern torus_pat(torus, PatternKind::kUniform, 4);
  const FaultPlan plan = OpenLoopDetourPlan(torus);
  ASSERT_TRUE(plan.Connected());
  dopts.rate = 0.12;
  ExpectDeterministicOpenLoop(
      torus, torus_pat, dopts, &plan,
      {0xc251af13164ce042ull, 94, 3828, 1191, 0x067abb40accf3e72ull,
       {0xc4b8e8ccd9e9bb6aull, 0x17a37f5b819932d4ull, 0x3cb5a8c9ff4c1528ull}});
}

// The zero-cost observability contract: attaching every timeline sink at
// once — congestion probe, metrics registry, thread-pool activity log —
// must leave the delivery trace byte-identical to the bare run.
TEST(OpenLoop, ObservabilitySinksDoNotPerturbDeliveries) {
  Topology topo(3, 6, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kTranspose, 21);
  DriverOptions dopts;
  dopts.rate = 0.08;
  dopts.warmup_steps = 20;
  dopts.measure_steps = 60;
  dopts.drain = true;
  dopts.seed = 7;

  ThreadPool pool(2);
  RunTrace bare;
  {
    OpenLoopInjector inner(topo, pat, dopts);
    RecordingInjector rec(&inner, &bare);
    EngineOptions eopts;
    eopts.pool = &pool;
    eopts.injector = &rec;
    Engine engine(topo, eopts);
    Network net(topo);
    bare.result.route = engine.Route(net);
    bare.result.offered = inner.offered();
    bare.result.delivered = inner.delivered();
    bare.result.latency_count = inner.latency().count();
    bare.result.latency_p99 = inner.latency().Quantile(0.99);
  }
  ASSERT_GT(bare.result.delivered, 0);

  RunTrace instrumented;
  CongestionTrace probe;
  MetricsRegistry metrics;
  ThreadPoolActivity activity;
  FlightRecorder recorder(256);
  MetricsPublisher publisher;
  JourneyTracer::Options jopts;
  jopts.sample_rate = 1.0;
  JourneyTracer journeys(jopts);
  TraceContext trace;
  const bool perf_on = trace.EnablePerfCounters();
  ProgressMeter meter(/*step_cap=*/0, /*interval_ms=*/1, /*force=*/false);
  {
    OpenLoopInjector inner(topo, pat, dopts);
    RecordingInjector rec(&inner, &instrumented);
    EngineOptions eopts;
    eopts.pool = &pool;
    eopts.injector = &rec;
    eopts.probe = &probe;
    eopts.metrics = &metrics;
    eopts.recorder = &recorder;
    eopts.journeys = &journeys;
    eopts.observer = meter.Observer();
    pool.set_activity(&activity);
    // The publisher thread snapshots the registry concurrently with the
    // route, exactly as a live `--metrics-port` run would.
    MetricsPublisher::Options popts;
    popts.registry = &metrics;
    popts.port = 0;
    popts.interval_ms = 1;
    ASSERT_TRUE(publisher.Start(popts));
    Engine engine(topo, eopts);
    Network net(topo);
    Span route_span = trace.Open("route");
    instrumented.result.route = engine.Route(net);
    route_span.Close();
    publisher.Stop();
    pool.set_activity(nullptr);
    instrumented.result.offered = inner.offered();
    instrumented.result.delivered = inner.delivered();
    instrumented.result.latency_count = inner.latency().count();
    instrumented.result.latency_p99 = inner.latency().Quantile(0.99);
  }

  EXPECT_TRUE(bare == instrumented);
  // ...and the sinks actually observed the run.
  EXPECT_FALSE(probe.samples().empty());
  EXPECT_EQ(metrics.counter("engine.routes").Total(), 1);
  EXPECT_EQ(metrics.counter("engine.steps").Total(),
            instrumented.result.route.steps);
  EXPECT_EQ(recorder.total_records(), instrumented.result.route.steps);
  EXPECT_EQ(recorder.Last().step, instrumented.result.route.steps);
  ASSERT_NE(instrumented.result.route.journeys, nullptr);
  EXPECT_GT(instrumented.result.route.journeys->traced_packets, 0);
  ASSERT_NE(instrumented.result.route.critical_path, nullptr);
  EXPECT_EQ(instrumented.result.route.critical_path->identity_violations, 0);
  EXPECT_FALSE(publisher.running());
  if (perf_on) {
    EXPECT_TRUE(trace.nodes()[1].perf.any());
  }
  meter.Finish();
}

TEST(OpenLoop, DrainedRunConservesPackets) {
  Topology topo(2, 8, Wrap::kTorus);
  TrafficPattern pat(topo, PatternKind::kHotSpot, 5);
  DriverOptions dopts;
  dopts.rate = 0.05;
  dopts.warmup_steps = 10;
  dopts.measure_steps = 40;
  dopts.drain = true;
  WorkloadResult r = RunOpenLoop(topo, pat, dopts);
  EXPECT_TRUE(r.route.completed);
  EXPECT_EQ(r.offered, r.delivered);
  EXPECT_EQ(r.offered, r.route.packets);
}

TEST(OpenLoop, LatencyNeverBeatsDistance) {
  Topology topo(2, 8, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 3);
  DriverOptions dopts;
  dopts.rate = 0.1;
  dopts.warmup_steps = 0;
  dopts.measure_steps = 80;
  dopts.drain = true;

  struct Check final : StepInjector {
    OpenLoopInjector* inner;
    const Topology* topo;
    std::vector<ProcId> src_of;  // id -> source
    InjectAction Inject(std::int64_t step,
                        std::vector<std::pair<ProcId, Packet>>* out) override {
      const InjectAction a = inner->Inject(step, out);
      for (const auto& [src, pkt] : *out) {
        if (static_cast<std::size_t>(pkt.id) >= src_of.size()) {
          src_of.resize(static_cast<std::size_t>(pkt.id) + 1);
        }
        src_of[static_cast<std::size_t>(pkt.id)] = src;
      }
      return a;
    }
    void OnDeliver(const Packet& pkt, std::int64_t step) override {
      const std::int64_t latency =
          static_cast<std::int64_t>(pkt.arrived) - pkt.tag + 1;
      const std::int64_t dist =
          topo->Dist(src_of[static_cast<std::size_t>(pkt.id)], pkt.dest);
      EXPECT_GE(latency, dist) << "packet " << pkt.id;
      EXPECT_EQ(pkt.dist0, dist);
      inner->OnDeliver(pkt, step);
    }
  };

  OpenLoopInjector inner(topo, pat, dopts);
  Check check;
  check.inner = &inner;
  check.topo = &topo;
  EngineOptions eopts;
  eopts.injector = &check;
  Engine engine(topo, eopts);
  Network net(topo);
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(inner.delivered(), 0);
}

TEST(OpenLoop, FixedHorizonStopsOnSchedule) {
  Topology topo(2, 8, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 17);
  DriverOptions dopts;
  dopts.rate = 0.3;
  dopts.warmup_steps = 16;
  dopts.measure_steps = 32;
  dopts.drain = false;
  WorkloadResult r = RunOpenLoop(topo, pat, dopts);
  // kStop ends the run one step past the measurement window.
  EXPECT_EQ(r.route.steps, dopts.warmup_steps + dopts.measure_steps + 1);
  EXPECT_GE(r.backlog_end, 0);
  // A requested stop is not a stall: no report, even with backlog left.
  EXPECT_EQ(r.route.stall_report, nullptr);
}

TEST(OpenLoop, PreloadedPacketsAreDeliveredAndRetired) {
  Topology topo(2, 6, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 1);
  DriverOptions dopts;
  dopts.rate = 0.0;  // nothing injected: only the preload drains
  dopts.warmup_steps = 0;
  dopts.measure_steps = 30;
  dopts.drain = true;

  OpenLoopInjector injector(topo, pat, dopts);
  EngineOptions eopts;
  eopts.injector = &injector;
  Engine engine(topo, eopts);
  Network net(topo);
  const std::vector<ProcId> dest = ReversalPermutation(topo);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(injector.delivered(), topo.size());
  EXPECT_EQ(net.TotalPackets(), 0);  // delivered packets are retired
}

TEST(OpenLoop, ZeroHopPacketsCountWithLatencyZero) {
  Topology topo(2, 4, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 1);
  DriverOptions dopts;
  dopts.rate = 0.0;
  dopts.warmup_steps = 0;
  dopts.measure_steps = 4;
  dopts.drain = true;

  struct SelfShot final : StepInjector {
    OpenLoopInjector* inner;
    std::int64_t self_latency = -100;
    InjectAction Inject(std::int64_t step,
                        std::vector<std::pair<ProcId, Packet>>* out) override {
      const InjectAction a = inner->Inject(step, out);
      if (step == 1) {
        Packet pkt;
        pkt.id = 1000;
        pkt.dest = 5;
        out->emplace_back(ProcId{5}, pkt);  // dest == source
      }
      return a;
    }
    void OnDeliver(const Packet& pkt, std::int64_t step) override {
      if (pkt.id == 1000) {
        self_latency = static_cast<std::int64_t>(pkt.arrived) - pkt.tag + 1;
      }
      inner->OnDeliver(pkt, step);
    }
  };

  OpenLoopInjector inner(topo, pat, dopts);
  SelfShot shot;
  shot.inner = &inner;
  EngineOptions eopts;
  eopts.injector = &shot;
  Engine engine(topo, eopts);
  Network net(topo);
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(shot.self_latency, 0);
  EXPECT_EQ(r.packets, 1);
}

TEST(OpenLoop, StableAtLowRateUnstableAtSaturation) {
  Topology topo(2, 8, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 31);
  DriverOptions low;
  low.rate = 0.02;
  low.warmup_steps = 40;
  low.measure_steps = 160;
  const WorkloadResult stable = RunOpenLoop(topo, pat, low);
  EXPECT_TRUE(stable.stable);

  DriverOptions high = low;
  high.rate = 0.95;  // far past any mesh's per-node service rate
  const WorkloadResult unstable = RunOpenLoop(topo, pat, high);
  EXPECT_FALSE(unstable.stable);
  EXPECT_GT(unstable.backlog_end, unstable.backlog_start);
}

TEST(OpenLoop, SaturationSearchBracketsTheBoundary) {
  Topology topo(2, 8, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 31);
  DriverOptions base;
  base.warmup_steps = 40;
  base.measure_steps = 160;
  SaturationOptions sopts;
  sopts.iterations = 5;
  const SaturationResult sat = FindSaturationRate(topo, pat, base, sopts);
  EXPECT_EQ(sat.probes.size(), 5u);
  EXPECT_GT(sat.rate, 0.0);
  EXPECT_LT(sat.rate, 1.0);
  EXPECT_GT(sat.unstable_rate, sat.rate);
  EXPECT_LE(sat.unstable_rate - sat.rate, 1.0 / 32.0 + 1e-9);
}

TEST(OpenLoop, RouteResultSurfacesPeakActiveProcs) {
  Topology topo(2, 8, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kUniform, 9);
  DriverOptions dopts;
  dopts.rate = 0.05;
  dopts.warmup_steps = 8;
  dopts.measure_steps = 32;
  dopts.drain = true;
  EngineOptions eopts;
  eopts.sparse = SparseMode::kAlways;
  WorkloadResult r = RunOpenLoop(topo, pat, dopts, eopts);
  EXPECT_GT(r.route.sparse_steps, 0);
  EXPECT_GE(r.route.peak_active_procs, 1);
  EXPECT_NE(r.route.ToJson().find("\"peak_active_procs\""), std::string::npos);
}

TEST(OpenLoop, WorkloadResultJsonHasSchemaKeys) {
  Topology topo(2, 6, Wrap::kMesh);
  TrafficPattern pat(topo, PatternKind::kHotSpot, 2);
  DriverOptions dopts;
  dopts.rate = 0.1;
  dopts.warmup_steps = 8;
  dopts.measure_steps = 24;
  WorkloadResult r = RunOpenLoop(topo, pat, dopts);
  std::ostringstream os;
  JsonWriter w(os);
  r.WriteJson(w);
  const std::string json = os.str();
  for (const char* key :
       {"\"pattern\"", "\"rate\"", "\"throughput\"", "\"stable\"",
        "\"latency_p50\"", "\"latency_p95\"", "\"latency_p99\"",
        "\"backlog_start\"", "\"backlog_end\"", "\"peak_active_procs\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace mdmesh
