// Packet-journey tracing (obs/journey.h) against the engine's step loop.
// The contracts pinned here are the subsystem's reason to exist:
//
//   * the critical-path identity, exactly: for every complete delivered
//     journey, delivery_step - injection_step = moves + waits;
//   * byte-identical JourneyLogs for any thread count, both traversal
//     modes (sparse vs dense), pipelined vs clean passes (the checker
//     makes every pass clean: commit only, then a separate bid), and under
//     fault plans;
//   * deterministic sampling: a pure function of (id, seed, watch);
//   * tracing disabled or enabled never perturbs the run itself.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "fault/fault_plan.h"
#include "net/engine.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/journey.h"
#include "routing/permutations.h"
#include "serve/json_value.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/driver.h"
#include "workload/patterns.h"

namespace mdmesh {
namespace {

Packet MakePacket(std::int64_t id, ProcId dest, std::uint16_t klass = 0) {
  Packet pkt;
  pkt.id = id;
  pkt.key = static_cast<std::uint64_t>(id);
  pkt.dest = dest;
  pkt.klass = klass;
  return pkt;
}

void FillPermutation(Network& net, const std::vector<ProcId>& dest,
                     int classes) {
  std::int64_t id = 0;
  for (ProcId p = 0; p < net.topo().size(); ++p) {
    net.Add(p, MakePacket(id, dest[static_cast<std::size_t>(p)],
                          static_cast<std::uint16_t>(
                              id % (classes > 0 ? classes : 1))));
    ++id;
  }
}

JourneyTracer::Options TraceAll() {
  JourneyTracer::Options jopts;
  jopts.sample_rate = 1.0;
  return jopts;
}

EngineOptions Opts(SparseMode mode = SparseMode::kAuto) {
  EngineOptions opts;
  opts.sparse = mode;
  opts.invariants = InvariantMode::kOff;
  return opts;
}

struct TracedRun {
  RouteResult result;
  std::shared_ptr<const JourneyLog> log;
};

TracedRun RunTraced(const Topology& topo, const Network& initial,
                    EngineOptions opts, JourneyTracer* tracer) {
  Network net = initial;
  opts.journeys = tracer;
  Engine engine(topo, opts);
  TracedRun out;
  out.result = engine.Route(net);
  out.log = out.result.journeys;
  return out;
}

using EventTuple = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                              std::int32_t, int, int, int, int>;

std::vector<EventTuple> Flatten(const JourneyLog& log) {
  std::vector<EventTuple> out;
  out.reserve(log.events.size());
  for (const JourneyEvent& ev : log.events) {
    out.emplace_back(ev.id, ev.proc, ev.step, ev.aux, int{ev.kind},
                     int{ev.dim}, int{ev.dir}, int{ev.flags});
  }
  return out;
}

void ExpectSameLog(const JourneyLog& a, const JourneyLog& b) {
  EXPECT_EQ(a.final_step, b.final_step);
  EXPECT_EQ(a.traced_packets, b.traced_packets);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(Flatten(a), Flatten(b));
}

TEST(JourneySampler, PureFunctionOfIdSeedAndWatch) {
  JourneyTracer::Options opts;
  opts.sample_rate = 0.5;
  opts.seed = 42;
  JourneyTracer a(opts);
  JourneyTracer b(opts);
  int sampled = 0;
  for (std::int64_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(a.Sampled(id), b.Sampled(id));
    if (a.Sampled(id)) ++sampled;
  }
  // A 50% rate over a full-avalanche hash lands near the middle; the exact
  // count is pinned by determinism, the range by the hash being unbiased.
  EXPECT_GT(sampled, 400);
  EXPECT_LT(sampled, 600);

  opts.seed = 43;
  JourneyTracer c(opts);
  bool differs = false;
  for (std::int64_t id = 0; id < 1000 && !differs; ++id) {
    differs = a.Sampled(id) != c.Sampled(id);
  }
  EXPECT_TRUE(differs) << "reseeding must reshuffle the sample";
}

TEST(JourneySampler, RateOneTracesEverythingRateZeroOnlyTheWatchList) {
  JourneyTracer::Options all;
  all.sample_rate = 1.0;
  JourneyTracer every(all);
  for (std::int64_t id : {0, 1, 17, 999999}) EXPECT_TRUE(every.Sampled(id));

  JourneyTracer::Options none;
  none.sample_rate = 0.0;
  none.watch = {7, 3};  // unsorted on purpose; the tracer sorts
  JourneyTracer watched(none);
  for (std::int64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(watched.Sampled(id), id == 3 || id == 7);
  }
}

TEST(JourneyTrace, IdentityHoldsForEveryPacketOfAPermutationRun) {
  Topology topo(2, 8, Wrap::kMesh);
  Rng rng(5);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  JourneyTracer tracer(TraceAll());
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_TRUE(run.result.completed);
  ASSERT_NE(run.log, nullptr);
  EXPECT_EQ(run.log->traced_packets, run.result.packets);
  EXPECT_FALSE(run.log->truncated);

  std::int64_t last_delivery = 0;
  for (const PacketJourney& j : DecomposeJourneys(*run.log, topo.dim())) {
    EXPECT_TRUE(j.complete());
    EXPECT_TRUE(j.delivered());
    EXPECT_TRUE(j.IdentityHolds())
        << "packet " << j.id << ": latency " << j.latency() << " != "
        << j.moves << " moves + " << j.waits() << " waits";
    EXPECT_EQ(j.injected_step, 0);  // preloaded
    std::int64_t dim_sum = 0;
    for (std::int64_t m : j.dim_moves) dim_sum += m;
    EXPECT_EQ(dim_sum, j.moves);
    EXPECT_GE(j.moves, j.dist0);
    last_delivery = std::max(last_delivery, j.delivery_step);
  }
  // Full-rate tracing sees the packet that defined the run's step count.
  EXPECT_EQ(last_delivery, run.result.steps);
}

TEST(JourneyTrace, ZeroHopPacketIsASingleDeliveredInjection) {
  Topology topo(2, 4, Wrap::kMesh);
  Network net(topo);
  net.Add(5, MakePacket(0, 5));   // already home
  net.Add(0, MakePacket(1, 15));  // travels corner to corner
  JourneyTracer tracer(TraceAll());
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_NE(run.log, nullptr);
  const auto journeys = DecomposeJourneys(*run.log, topo.dim());
  ASSERT_EQ(journeys.size(), 2u);
  const PacketJourney& home = journeys[0];
  EXPECT_EQ(home.id, 0);
  EXPECT_EQ(home.event_count, 1u);
  EXPECT_EQ(home.moves, 0);
  EXPECT_EQ(home.waits(), 0);
  EXPECT_EQ(home.delivery_step, home.injected_step);
  EXPECT_TRUE(home.IdentityHolds());
  const PacketJourney& far = journeys[1];
  EXPECT_EQ(far.dist0, 6);
  EXPECT_GE(far.moves, 6);
  EXPECT_TRUE(far.IdentityHolds());
}

TEST(JourneyTrace, ByteIdenticalAcrossThreadCountsLayoutsAndModes) {
  Topology topo(2, 10, Wrap::kTorus);
  Rng rng(9);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  JourneyTracer baseline_tracer(TraceAll());
  const TracedRun baseline = RunTraced(
      topo, net, Opts(SparseMode::kNever),
      &baseline_tracer);
  ASSERT_NE(baseline.log, nullptr);
  ASSERT_GT(baseline.log->events.size(), 0u);

  ThreadPool pool(4);
  struct Variant {
    const char* name;
    SparseMode sparse;
    bool pooled;
    InvariantMode invariants;
  };
  const Variant variants[] = {
      {"sparse", SparseMode::kAlways, false, InvariantMode::kOff},
      {"pooled", SparseMode::kNever, true, InvariantMode::kOff},
      {"sparse pooled", SparseMode::kAlways, true, InvariantMode::kOff},
      {"clean passes (checker on)", SparseMode::kNever, false,
       InvariantMode::kOn},
      {"sparse clean passes pooled (checker on)", SparseMode::kAlways, true,
       InvariantMode::kOn},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    EngineOptions opts = Opts(v.sparse);
    opts.invariants = v.invariants;
    opts.pool = v.pooled ? &pool : nullptr;
    JourneyTracer tracer(TraceAll());
    const TracedRun run = RunTraced(topo, net, opts, &tracer);
    ASSERT_NE(run.log, nullptr);
    ExpectSameLog(*baseline.log, *run.log);
  }
}

TEST(JourneyTrace, ByteIdenticalUnderFaults) {
  Topology topo(2, 10, Wrap::kTorus);
  FaultSpec spec;
  spec.link_rate = 0.02;
  spec.flap_rate = 0.02;
  const FaultPlan plan = FaultPlan::Random(topo, spec, /*seed=*/11);
  Rng rng(11);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  ThreadPool pool(4);

  EngineOptions serial_opts = Opts();
  serial_opts.faults = &plan;
  JourneyTracer serial_tracer(TraceAll());
  const TracedRun serial = RunTraced(topo, net, serial_opts, &serial_tracer);
  ASSERT_TRUE(serial.result.completed);
  ASSERT_GT(serial.result.detours, 0);
  ASSERT_NE(serial.log, nullptr);

  // Faulted journeys still satisfy the identity: a dead-link hold is a
  // wait, a detour hop is a move.
  bool saw_detour_move = false;
  for (const PacketJourney& j : DecomposeJourneys(*serial.log, topo.dim())) {
    EXPECT_TRUE(j.IdentityHolds()) << "packet " << j.id;
    saw_detour_move = saw_detour_move || j.detour_moves > 0;
  }
  EXPECT_TRUE(saw_detour_move);

  EngineOptions pooled_opts = Opts(SparseMode::kAlways);
  pooled_opts.faults = &plan;
  pooled_opts.pool = &pool;
  JourneyTracer pooled_tracer(TraceAll());
  const TracedRun pooled = RunTraced(topo, net, pooled_opts, &pooled_tracer);
  ASSERT_NE(pooled.log, nullptr);
  ExpectSameLog(*serial.log, *pooled.log);
}

TEST(JourneyTrace, SampledLogIsASubsetAndStillDeterministic) {
  Topology topo(2, 12, Wrap::kMesh);
  Rng rng(3);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  JourneyTracer::Options jopts;
  jopts.sample_rate = 0.25;
  jopts.seed = 99;
  JourneyTracer a(jopts);
  JourneyTracer b(jopts);
  ThreadPool pool(4);
  EngineOptions pooled = Opts(SparseMode::kAlways);
  pooled.pool = &pool;
  const TracedRun ra = RunTraced(topo, net, Opts(), &a);
  const TracedRun rb = RunTraced(topo, net, pooled, &b);
  ASSERT_NE(ra.log, nullptr);
  EXPECT_GT(ra.log->traced_packets, 0);
  EXPECT_LT(ra.log->traced_packets, ra.result.packets);
  ExpectSameLog(*ra.log, *rb.log);
}

TEST(JourneyTrace, TracingDoesNotPerturbTheRun) {
  Topology topo(2, 9, Wrap::kMesh);
  Rng rng(21);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);

  Network bare_net = net;
  Engine bare_engine(topo, Opts());
  const RouteResult bare = bare_engine.Route(bare_net);
  EXPECT_EQ(bare.journeys, nullptr);
  EXPECT_EQ(bare.critical_path, nullptr);

  JourneyTracer tracer(TraceAll());
  const TracedRun traced = RunTraced(topo, net, Opts(),
                                     &tracer);
  EXPECT_EQ(bare.steps, traced.result.steps);
  EXPECT_EQ(bare.moves, traced.result.moves);
  EXPECT_EQ(bare.max_queue, traced.result.max_queue);
  EXPECT_EQ(bare.detours, traced.result.detours);
}

TEST(JourneyTrace, TruncationCapsTheLogAndFlagsIt) {
  Topology topo(2, 8, Wrap::kMesh);
  Rng rng(5);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  JourneyTracer::Options jopts = TraceAll();
  jopts.max_events = 16;
  JourneyTracer tracer(jopts);
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_NE(run.log, nullptr);
  EXPECT_TRUE(run.log->truncated);
  EXPECT_LE(static_cast<std::int64_t>(run.log->events.size()), 16);
}

TEST(JourneyTrace, InjectorRunJourneysHoldTheIdentityAndMatchAcrossThreads) {
  Topology topo(2, 8, Wrap::kTorus);
  TrafficPattern pattern(topo, PatternKind::kUniform, /*seed=*/17);
  DriverOptions dopts;
  dopts.rate = 0.05;
  dopts.warmup_steps = 10;
  dopts.measure_steps = 60;
  dopts.drain = true;
  dopts.seed = 17;

  JourneyTracer serial_tracer(TraceAll());
  EngineOptions serial_opts = Opts();
  serial_opts.journeys = &serial_tracer;
  const WorkloadResult serial = RunOpenLoop(topo, pattern, dopts, serial_opts);
  ASSERT_NE(serial.route.journeys, nullptr);
  ASSERT_GT(serial.route.journeys->traced_packets, 0);

  for (const PacketJourney& j :
       DecomposeJourneys(*serial.route.journeys, topo.dim())) {
    EXPECT_TRUE(j.complete());
    EXPECT_TRUE(j.delivered());  // drained run: everything lands
    EXPECT_TRUE(j.IdentityHolds()) << "packet " << j.id;
    // t0 is injection_step - 1, so the traced latency equals the latency
    // histogram's arrived - tag + 1 accounting.
    EXPECT_GE(j.injected_step, 0);
  }

  for (unsigned workers : {2u, 4u}) {
    ThreadPool pool(workers);
    JourneyTracer tracer(TraceAll());
    EngineOptions opts = Opts();
    opts.pool = &pool;
    opts.journeys = &tracer;
    const WorkloadResult pooled = RunOpenLoop(topo, pattern, dopts, opts);
    ASSERT_NE(pooled.route.journeys, nullptr);
    EXPECT_EQ(serial.delivery_hash, pooled.delivery_hash);
    ExpectSameLog(*serial.route.journeys, *pooled.route.journeys);
  }
}

TEST(CriticalPath, ReportDecomposesTheRunAndAnchorsTheBoundGap) {
  Topology topo(2, 8, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, TransposePermutation(topo), 2);
  JourneyTracer tracer(TraceAll());
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_TRUE(run.result.completed);
  ASSERT_NE(run.result.critical_path, nullptr);
  const CriticalPathReport& rep = *run.result.critical_path;

  EXPECT_EQ(rep.run_steps, run.result.steps);
  EXPECT_EQ(rep.traced, run.result.packets);
  EXPECT_EQ(rep.traced_delivered, run.result.packets);
  EXPECT_EQ(rep.identity_violations, 0);
  ASSERT_TRUE(rep.have_last);
  EXPECT_TRUE(rep.critical_traced);  // full-rate sample contains the last
  EXPECT_EQ(rep.last.delivery_step, run.result.steps);
  EXPECT_TRUE(rep.last.IdentityHolds());
  ASSERT_TRUE(rep.have_p99);
  // Preloaded packets all inject at t0 = 0, so the latest delivery is also
  // the largest latency and p99 cannot exceed it.
  EXPECT_LE(rep.p99.latency(), rep.last.latency());

  // Bound gap: the run can never beat the instance's lower bounds, and for
  // a permutation the realized max distance is one of them.
  EXPECT_EQ(rep.distance_lb, run.result.max_distance);
  EXPECT_GE(rep.lower_bound, rep.distance_lb);
  EXPECT_GE(rep.lower_bound, rep.bisection_lb);
  EXPECT_EQ(rep.bound_gap, rep.run_steps - rep.lower_bound);
  EXPECT_GE(rep.bound_gap, 0);

  std::int64_t dim_sum = 0;
  for (std::int64_t m : rep.dim_moves) dim_sum += m;
  EXPECT_EQ(dim_sum, rep.total_moves);
  EXPECT_EQ(rep.total_moves, run.result.moves);
}

TEST(JourneyExport, JsonlLinesParseAndCarryTheDecomposition) {
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, ReversalPermutation(topo), 2);
  JourneyTracer tracer(TraceAll());
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_NE(run.log, nullptr);
  std::ostringstream os;
  WriteJourneysJsonl(*run.log, topo.dim(), os);
  std::istringstream is(os.str());
  std::string line;
  std::int64_t lines = 0;
  while (std::getline(is, line)) {
    const JsonParseResult parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok) << parsed.error << " in: " << line;
    const JsonValue& j = parsed.value;
    EXPECT_TRUE(j["delivered"].AsBool());
    const std::int64_t latency =
        j["delivery_step"].AsInt() - j["injected_step"].AsInt();
    const std::int64_t waits =
        j["waits"]["lost_bid"].AsInt() + j["waits"]["links_dead"].AsInt();
    EXPECT_EQ(latency, j["moves"].AsInt() + waits);
    EXPECT_GT(j["events"].Items().size(), 0u);
    ++lines;
  }
  EXPECT_EQ(lines, run.log->traced_packets);
}

TEST(JourneyExport, ChromeTraceGainsOneAsyncSpanPerTracedPacket) {
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, TransposePermutation(topo), 2);
  JourneyTracer tracer(TraceAll());
  const TracedRun run = RunTraced(topo, net, Opts(),
                                  &tracer);
  ASSERT_NE(run.log, nullptr);
  RunManifest manifest;
  ChromeTraceWriter writer(manifest);
  const std::size_t before = writer.event_count();
  ExportJourneysToChromeTrace(*run.log, topo.dim(), &writer);
  // One b/e async pair per traced packet.
  EXPECT_EQ(writer.event_count(),
            before + 2 * static_cast<std::size_t>(run.log->traced_packets));
  std::ostringstream os;
  writer.Write(os);
  EXPECT_NE(os.str().find("\"packet journeys\""), std::string::npos);
}

}  // namespace
}  // namespace mdmesh
