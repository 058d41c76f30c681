// Checkpoint/restore: resume determinism, file-format integrity, and the
// keep-K manager.
//
// The central contract (net/engine_state.h): resuming from a checkpoint
// taken at any step S reproduces the uninterrupted run byte-for-byte —
// same step/move counts, same final queue contents in the same order, same
// delivery trace — for meshes and tori in 2 and 3 dimensions, sparse or
// dense traversal, serial or threaded, with or without fault-induced
// detours, and for injector-driven runs checkpointed mid-warmup or
// mid-measure. The corruption suite pins the other half of the robustness
// story: a truncated, bit-flipped, version-bumped, or wrong-configuration
// checkpoint is rejected with a structured status, never crashes, and
// never resumes silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <sys/stat.h>

#include "ckpt/checkpoint.h"
#include "ckpt/manager.h"
#include "core/config.h"
#include "fault/fault_plan.h"
#include "net/engine.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/journey.h"
#include "obs/probe.h"
#include "routing/permutations.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/driver.h"
#include "workload/patterns.h"
#include "run_digest.h"

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

/// Byte-level view of a network: per processor, packets in queue order.
using Ordered = std::vector<std::vector<
    std::tuple<std::uint64_t, std::int64_t, ProcId, std::int32_t,
               std::uint16_t>>>;

Ordered OrderedSnapshot(const Network& net) {
  Ordered snap(static_cast<std::size_t>(net.topo().size()));
  for (ProcId p = 0; p < net.topo().size(); ++p) {
    for (const Packet& pkt : net.At(p)) {
      snap[static_cast<std::size_t>(p)].emplace_back(
          pkt.key, pkt.id, pkt.dest, pkt.arrived, pkt.flags);
    }
  }
  return snap;
}

struct RunOutput {
  RouteResult result;
  Ordered snapshot;
};

void ExpectSameRun(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.result.steps, b.result.steps);
  EXPECT_EQ(a.result.moves, b.result.moves);
  EXPECT_EQ(a.result.max_queue, b.result.max_queue);
  EXPECT_EQ(a.result.packets, b.result.packets);
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.max_overshoot, b.result.max_overshoot);
  EXPECT_EQ(a.result.detours, b.result.detours);
  EXPECT_EQ(a.snapshot, b.snapshot);
}

/// Test sink: snapshots at the requested steps, records every (state,
/// cause) pair.
class CaptureSink final : public CheckpointSink {
 public:
  explicit CaptureSink(std::vector<std::int64_t> at = {})
      : at_(std::move(at)) {}

  bool Due(std::int64_t step) override {
    return std::find(at_.begin(), at_.end(), step) != at_.end();
  }
  void Save(const EngineCheckpointState& state, const char* cause) override {
    states_.push_back(state);
    causes_.emplace_back(cause);
  }

  const std::vector<EngineCheckpointState>& states() const { return states_; }
  const std::vector<std::string>& causes() const { return causes_; }

 private:
  std::vector<std::int64_t> at_;
  std::vector<EngineCheckpointState> states_;
  std::vector<std::string> causes_;
};

// ---------------------------------------------------------------------------
// Resume determinism: static permutation runs.

/// Routes a permutation on `spec` under (sparse mode, worker count,
/// optional faults); checkpoints at several mid-run steps; asserts that
/// (a) attaching the sink did not change the run and (b) resuming from
/// every captured snapshot finishes byte-identical to the baseline.
void ExpectResumeMatchesBaseline(const MeshSpec& spec, const FaultPlan* plan,
                                 SparseMode sparse, unsigned workers) {
  SCOPED_TRACE(std::string(spec.ToString()) +
               (plan != nullptr ? " +faults" : "") +
               " sparse=" + std::to_string(static_cast<int>(sparse)) +
               " workers=" + std::to_string(workers));
  const Topology topo = spec.Build();
  ThreadPool pool(workers);
  EngineOptions opts;
  opts.sparse = sparse;
  opts.pool = &pool;
  opts.faults = plan;

  Network initial(topo);
  Rng rng(99);
  FillPermutation(initial, RandomPermutation(topo, rng), topo.dim());

  RunOutput baseline;
  {
    Network net = initial;
    Engine engine(topo, opts);
    baseline.result = engine.Route(net);
    baseline.snapshot = OrderedSnapshot(net);
  }
  ASSERT_TRUE(baseline.result.completed);
  ASSERT_GE(baseline.result.steps, 3);

  std::vector<std::int64_t> at = {1, baseline.result.steps / 2,
                                  baseline.result.steps - 1};
  at.erase(std::unique(at.begin(), at.end()), at.end());
  CaptureSink sink(at);
  EngineOptions sink_opts = opts;
  sink_opts.checkpoint = &sink;
  RunOutput with_sink;
  {
    Network net = initial;
    Engine engine(topo, sink_opts);
    with_sink.result = engine.Route(net);
    with_sink.snapshot = OrderedSnapshot(net);
  }
  // Checkpointing must be invisible in the results (a due step commits
  // without bidding ahead, and the next step bids on its own).
  ExpectSameRun(with_sink, baseline);
  ASSERT_EQ(sink.states().size(), at.size());

  for (const EngineCheckpointState& state : sink.states()) {
    SCOPED_TRACE("resume from step " + std::to_string(state.step));
    Network net(topo);
    Engine engine(topo, opts);
    RunOutput resumed;
    resumed.result = engine.Resume(net, state);
    resumed.snapshot = OrderedSnapshot(net);
    ExpectSameRun(resumed, baseline);
  }
}

TEST(CkptResumeTest, Mesh2DGreedySerialDense) {
  ExpectResumeMatchesBaseline({2, 6, Wrap::kMesh}, nullptr, SparseMode::kNever,
                              0);
}

TEST(CkptResumeTest, Mesh2DGreedyThreadedSparse) {
  ExpectResumeMatchesBaseline({2, 6, Wrap::kMesh}, nullptr, SparseMode::kAlways,
                              4);
}

TEST(CkptResumeTest, Mesh3DGreedyAutoSerial) {
  ExpectResumeMatchesBaseline({3, 4, Wrap::kMesh}, nullptr, SparseMode::kAuto,
                              0);
}

TEST(CkptResumeTest, Mesh3DGreedyAutoThreaded) {
  ExpectResumeMatchesBaseline({3, 4, Wrap::kMesh}, nullptr, SparseMode::kAuto,
                              4);
}

TEST(CkptResumeTest, Torus2DGreedySerial) {
  ExpectResumeMatchesBaseline({2, 6, Wrap::kTorus}, nullptr, SparseMode::kAuto,
                              0);
}

TEST(CkptResumeTest, Torus3DGreedyThreaded) {
  ExpectResumeMatchesBaseline({3, 4, Wrap::kTorus}, nullptr, SparseMode::kAuto,
                              4);
}

/// Faulted torus: permanent dead links force adaptive detours and wrong-way
/// lock bits; flap events exercise the fault-cursor replay on resume.
FaultPlan DetourPlan(const Topology& topo) {
  FaultPlan plan(topo);
  plan.KillLinkPair(0, 0, 1);
  plan.KillLinkPair(topo.size() / 2, 1, 0);
  plan.AddFlap(1, 0, 0, /*start=*/2, /*duration=*/6);
  plan.AddFlap(topo.size() / 3, 1, 1, /*start=*/5, /*duration=*/4);
  return plan;
}

TEST(CkptResumeTest, Torus2DDetourUnderFaultsSerial) {
  const MeshSpec spec{2, 6, Wrap::kTorus};
  const Topology topo = spec.Build();
  const FaultPlan plan = DetourPlan(topo);
  ExpectResumeMatchesBaseline(spec, &plan, SparseMode::kAuto, 0);
}

TEST(CkptResumeTest, Torus2DDetourUnderFaultsThreaded) {
  const MeshSpec spec{2, 6, Wrap::kTorus};
  const Topology topo = spec.Build();
  const FaultPlan plan = DetourPlan(topo);
  ExpectResumeMatchesBaseline(spec, &plan, SparseMode::kAuto, 4);
}

TEST(CkptResumeTest, Torus3DDetourUnderFaultsThreadedDense) {
  const MeshSpec spec{3, 4, Wrap::kTorus};
  const Topology topo = spec.Build();
  const FaultPlan plan = DetourPlan(topo);
  ExpectResumeMatchesBaseline(spec, &plan, SparseMode::kNever, 4);
}

TEST(CkptResumeTest, StepCapAbortEmitsResumableCheckpoint) {
  const MeshSpec spec{2, 8, Wrap::kMesh};
  const Topology topo = spec.Build();
  Network initial(topo);
  Rng rng(7);
  FillPermutation(initial, RandomPermutation(topo, rng), topo.dim());

  CaptureSink sink;  // never due on cadence — only the abort path fires
  EngineOptions opts;
  opts.step_cap = 3;
  opts.checkpoint = &sink;
  Network net = initial;
  Engine engine(topo, opts);
  const RouteResult r = engine.Route(net);
  ASSERT_FALSE(r.completed);
  ASSERT_EQ(sink.states().size(), 1u);
  EXPECT_EQ(sink.causes()[0], "step_cap");
  EXPECT_EQ(sink.states()[0].step, 3);
}

// ---------------------------------------------------------------------------
// Resume determinism: open-loop injector runs.

/// An injector run pinned as constants, measured on the engine whose
/// open-loop runs stepped through a separate unfused bid, commit and retire
/// loop: delivery hash, totals, and digests of the per-step CongestionTrace
/// (default traversal mode) and of a 1000-per-mille journey log.
struct PinnedInjectorRun {
  std::uint64_t delivery_hash;
  std::int64_t steps;
  std::int64_t moves;
  std::int64_t detours;
  std::uint64_t trace_hash;
  std::uint64_t journey_hash;
};

DriverOptions InjectorDriver(bool drain) {
  DriverOptions dopts;
  dopts.rate = 0.15;
  dopts.warmup_steps = 40;
  dopts.measure_steps = 120;
  dopts.drain = drain;
  dopts.seed = 11;
  return dopts;
}

/// Runs with a probe and a full journey tracer attached and checks the
/// result against `pin`.
WorkloadResult RunPinned(const Topology& topo, const TrafficPattern& pattern,
                         const DriverOptions& dopts, EngineOptions eopts,
                         const PinnedInjectorRun& pin) {
  CongestionTrace probe;
  JourneyTracer::Options jopts;
  jopts.sample_rate = 1.0;
  JourneyTracer journeys(jopts);
  eopts.probes = {&probe};
  eopts.journeys = &journeys;
  const WorkloadResult r = RunOpenLoop(topo, pattern, dopts, eopts);
  EXPECT_NE(r.route.journeys, nullptr);
  const std::uint64_t trace_hash = TraceDigest(probe);
  const std::uint64_t journey_hash =
      r.route.journeys != nullptr ? JourneyDigest(*r.route.journeys) : 0;
  char got[160];
  std::snprintf(got, sizeof(got),
                "got {0x%016llxull, %lld, %lld, %lld, 0x%016llxull, "
                "0x%016llxull}",
                static_cast<unsigned long long>(r.delivery_hash),
                static_cast<long long>(r.route.steps),
                static_cast<long long>(r.route.moves),
                static_cast<long long>(r.route.detours),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(journey_hash));
  SCOPED_TRACE(got);
  EXPECT_EQ(r.delivery_hash, pin.delivery_hash);
  EXPECT_EQ(r.route.steps, pin.steps);
  EXPECT_EQ(r.route.moves, pin.moves);
  EXPECT_EQ(r.route.detours, pin.detours);
  EXPECT_EQ(trace_hash, pin.trace_hash);
  EXPECT_EQ(journey_hash, pin.journey_hash);
  return r;
}

void ExpectSameWorkload(const WorkloadResult& a, const WorkloadResult& b) {
  EXPECT_EQ(a.delivery_hash, b.delivery_hash);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.measured_injected, b.measured_injected);
  EXPECT_EQ(a.measured_delivered, b.measured_delivered);
  EXPECT_EQ(a.latency_count, b.latency_count);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.route.steps, b.route.steps);
  EXPECT_EQ(a.route.moves, b.route.moves);
  EXPECT_EQ(a.route.detours, b.route.detours);
  EXPECT_EQ(a.stable, b.stable);
}

/// `plan` and `pin` are optional: a pinned run also checks the baseline
/// and the checkpointing run against the constants.
void ExpectInjectorResumeMatches(const MeshSpec& spec, unsigned workers,
                                 bool drain, const FaultPlan* plan = nullptr,
                                 const PinnedInjectorRun* pin = nullptr) {
  SCOPED_TRACE(std::string(spec.ToString()) +
               " workers=" + std::to_string(workers) +
               " drain=" + std::to_string(drain) +
               (plan != nullptr ? " +faults" : ""));
  const Topology topo = spec.Build();
  ThreadPool pool(workers);
  TrafficPattern pattern(topo, PatternKind::kUniform, 5);
  const DriverOptions dopts = InjectorDriver(drain);
  EngineOptions eopts;
  eopts.pool = &pool;
  eopts.faults = plan;

  const WorkloadResult baseline =
      pin != nullptr ? RunPinned(topo, pattern, dopts, eopts, *pin)
                     : RunOpenLoop(topo, pattern, dopts, eopts);
  ASSERT_GT(baseline.delivered, 0);

  // Mid-warmup and mid-measure snapshots — both windows carry genuine
  // injector state (RNG position, cursors, and for mid-measure a partially
  // filled latency histogram).
  CaptureSink sink({10, 100});
  EngineOptions sink_opts = eopts;
  sink_opts.checkpoint = &sink;
  const WorkloadResult with_sink =
      pin != nullptr ? RunPinned(topo, pattern, dopts, sink_opts, *pin)
                     : RunOpenLoop(topo, pattern, dopts, sink_opts);
  EXPECT_EQ(with_sink.delivery_hash, baseline.delivery_hash);
  ASSERT_EQ(sink.states().size(), 2u);

  for (const EngineCheckpointState& state : sink.states()) {
    SCOPED_TRACE("resume from step " + std::to_string(state.step));
    const WorkloadResult resumed =
        RunOpenLoop(topo, pattern, dopts, eopts, &state);
    ExpectSameWorkload(resumed, baseline);
  }
}

TEST(CkptInjectorResumeTest, Mesh2DSerialDrain) {
  ExpectInjectorResumeMatches({2, 8, Wrap::kMesh}, 0, /*drain=*/true);
}

TEST(CkptInjectorResumeTest, Mesh2DThreadedDrain) {
  ExpectInjectorResumeMatches({2, 8, Wrap::kMesh}, 4, /*drain=*/true);
}

TEST(CkptInjectorResumeTest, Torus3DSerialFixedHorizon) {
  ExpectInjectorResumeMatches({3, 4, Wrap::kTorus}, 0, /*drain=*/false);
}

TEST(CkptInjectorResumeTest, Torus3DThreadedDrain) {
  ExpectInjectorResumeMatches({3, 4, Wrap::kTorus}, 4, /*drain=*/true);
}

/// DetourPlan plus flaps around both checkpoint steps (10 and 100),
/// including edges at steps 11 and 101, right after each snapshot.
FaultPlan InjectorDetourPlan(const Topology& topo) {
  FaultPlan plan = DetourPlan(topo);
  plan.AddFlap(topo.size() / 4, 0, 1, /*start=*/8, /*duration=*/5);
  plan.AddFlap(topo.size() - 3, 1, 0, /*start=*/11, /*duration=*/2);
  plan.AddFlap(topo.size() / 5, 0, 0, /*start=*/96, /*duration=*/9);
  plan.AddFlap(topo.size() / 6, 1, 1, /*start=*/101, /*duration=*/3);
  return plan;
}

const MeshSpec kFaultedTorus{2, 8, Wrap::kTorus};
const PinnedInjectorRun kFaultedTorusPin = {
    0x8fa7f86809bd9e16ull, 173, 9636, 2942, 0xf15ee031e7aab2c1ull,
    0x8928462809d7b0bbull};

TEST(CkptInjectorResumeTest, Torus2DFaultedThreadedDrain) {
  const Topology topo = kFaultedTorus.Build();
  const FaultPlan plan = InjectorDetourPlan(topo);
  ASSERT_TRUE(plan.Connected());
  ExpectInjectorResumeMatches(kFaultedTorus, 4, /*drain=*/true, &plan,
                              &kFaultedTorusPin);
}

/// Forwards to an OpenLoopInjector and raises the SIGINT/SIGTERM flag at
/// step `at`, as a signal landing mid-run would: from inside Inject, before
/// the step's pass, or with `in_deliver` from the step's first delivery of
/// a packet that crossed a link (zero-hop packets are handed back at
/// injection, before the pass), after a pass that has already bid the next
/// step and applied its flap edges.
class InterruptingInjector final : public StepInjector {
 public:
  InterruptingInjector(OpenLoopInjector* inner, std::int64_t at,
                       bool in_deliver)
      : inner_(inner), at_(at), in_deliver_(in_deliver) {}

  InjectAction Inject(std::int64_t step,
                      std::vector<std::pair<ProcId, Packet>>* out) override {
    if (!in_deliver_ && step == at_) FlightRecorder::RequestInterrupt();
    return inner_->Inject(step, out);
  }
  void OnDeliver(const Packet& pkt, std::int64_t step) override {
    if (in_deliver_ && step == at_ && pkt.arrived == step) {
      FlightRecorder::RequestInterrupt();
    }
    inner_->OnDeliver(pkt, step);
  }
  void SaveState(std::vector<std::uint8_t>* out) const override {
    inner_->SaveState(out);
  }
  bool RestoreState(const std::uint8_t* data, std::size_t size) override {
    return inner_->RestoreState(data, size);
  }

 private:
  OpenLoopInjector* inner_;
  std::int64_t at_;
  bool in_deliver_;
};

/// Interrupts the faulted torus run at step `at` (after a cadence save at
/// 30), then resumes the interrupt snapshot serially and with four workers;
/// both must finish as the uninterrupted pinned run did.
void ExpectInterruptedRunResumes(std::int64_t at, bool in_deliver) {
  const Topology topo = kFaultedTorus.Build();
  const FaultPlan plan = InjectorDetourPlan(topo);
  TrafficPattern pattern(topo, PatternKind::kUniform, 5);
  const DriverOptions dopts = InjectorDriver(/*drain=*/true);
  EngineOptions eopts;
  eopts.faults = &plan;
  ThreadPool serial(0);
  eopts.pool = &serial;
  const WorkloadResult baseline =
      RunPinned(topo, pattern, dopts, eopts, kFaultedTorusPin);

  OpenLoopInjector inner(topo, pattern, dopts);
  InterruptingInjector injector(&inner, at, in_deliver);
  CaptureSink sink({30});
  EngineOptions iopts = eopts;
  iopts.injector = &injector;
  iopts.checkpoint = &sink;
  Network net(topo);
  Engine engine(topo, iopts);
  const RouteResult r = engine.Route(net);
  EXPECT_FALSE(r.completed);
  ASSERT_NE(r.stall_report, nullptr);
  EXPECT_EQ(r.stall_report->reason, StallReason::kInterrupt);
  EXPECT_EQ(r.steps, at);
  EXPECT_FALSE(FlightRecorder::InterruptRequested());
  ASSERT_EQ(sink.causes(), (std::vector<std::string>{"cadence", "interrupt"}));
  const EngineCheckpointState& state = sink.states()[1];
  EXPECT_EQ(state.step, at);
  // The snapshot's fault cursor covers exactly the flap edges of steps
  // <= at, never the next step's.
  std::uint64_t want_cursor = 0;
  for (const FaultPlan::FlapEvent& ev : plan.Events()) {
    if (ev.step <= at) ++want_cursor;
  }
  EXPECT_EQ(state.fault_cursor, want_cursor);

  for (unsigned workers : {0u, 4u}) {
    SCOPED_TRACE("resume with workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    EngineOptions ropts = eopts;
    ropts.pool = &pool;
    const WorkloadResult resumed =
        RunOpenLoop(topo, pattern, dopts, ropts, &state);
    ExpectSameWorkload(resumed, baseline);
  }
}

TEST(CkptInjectorResumeTest, InterruptMidMeasureResumesAtAnyWorkerCount) {
  ExpectInterruptedRunResumes(90, /*in_deliver=*/false);
}

TEST(CkptInjectorResumeTest, InterruptAfterPassRewindsTheNextStepsFlaps) {
  // Raised during step 95's deliveries: the next step, 96, starts a flap.
  ExpectInterruptedRunResumes(95, /*in_deliver=*/true);
}

// ---------------------------------------------------------------------------
// Resume validation: structured refusals, no silent continuation.

EngineCheckpointState CaptureOneState(const Topology& topo,
                                      const EngineOptions& opts,
                                      std::int64_t at) {
  CaptureSink sink({at});
  EngineOptions sink_opts = opts;
  sink_opts.checkpoint = &sink;
  Network net(topo);
  Rng rng(3);
  FillPermutation(net, RandomPermutation(topo, rng), topo.dim());
  Engine engine(topo, sink_opts);
  engine.Route(net);
  EXPECT_EQ(sink.states().size(), 1u);
  return sink.states().empty() ? EngineCheckpointState{} : sink.states()[0];
}

TEST(CkptResumeValidationTest, RefusesTopologyShapeMismatch) {
  const Topology small = MeshSpec{2, 6, Wrap::kMesh}.Build();
  const EngineCheckpointState state = CaptureOneState(small, {}, 2);
  const Topology big = MeshSpec{2, 8, Wrap::kMesh}.Build();
  Engine engine(big, {});
  Network net(big);
  EXPECT_THROW(engine.Resume(net, state), std::invalid_argument);
}

TEST(CkptResumeValidationTest, RefusesWrapMismatch) {
  const Topology mesh = MeshSpec{2, 6, Wrap::kMesh}.Build();
  const EngineCheckpointState state = CaptureOneState(mesh, {}, 2);
  const Topology torus = MeshSpec{2, 6, Wrap::kTorus}.Build();
  Engine engine(torus, {});
  Network net(torus);
  EXPECT_THROW(engine.Resume(net, state), std::invalid_argument);
}

TEST(CkptResumeValidationTest, RefusesEngineOptionsMismatch) {
  const Topology topo = MeshSpec{2, 6, Wrap::kMesh}.Build();
  const EngineCheckpointState state = CaptureOneState(topo, {}, 2);
  EngineOptions other;
  other.step_cap = 12345;  // hashed into the manifest options hash
  Engine engine(topo, other);
  Network net(topo);
  EXPECT_THROW(engine.Resume(net, state), std::invalid_argument);
}

TEST(CkptResumeValidationTest, RefusesInjectorPresenceMismatch) {
  const Topology topo = MeshSpec{2, 6, Wrap::kMesh}.Build();
  const EngineCheckpointState state = CaptureOneState(topo, {}, 2);
  TrafficPattern pattern(topo, PatternKind::kUniform, 1);
  OpenLoopInjector injector(topo, pattern, {});
  EngineOptions with_injector;
  with_injector.injector = &injector;
  Engine engine(topo, with_injector);
  Network net(topo);
  EXPECT_THROW(engine.Resume(net, state), std::invalid_argument);
}

TEST(CkptResumeValidationTest, RefusesFaultCursorBeyondPlan) {
  const Topology topo = MeshSpec{2, 6, Wrap::kTorus}.Build();
  const FaultPlan plan = DetourPlan(topo);
  EngineOptions opts;
  opts.faults = &plan;
  EngineCheckpointState state = CaptureOneState(topo, opts, 2);
  state.fault_cursor = 1000;  // plan has only a handful of flap edges
  Engine engine(topo, opts);
  Network net(topo);
  EXPECT_THROW(engine.Resume(net, state), std::invalid_argument);
}

TEST(CkptResumeValidationTest, InjectorRejectsMalformedBlob) {
  const Topology topo = MeshSpec{2, 6, Wrap::kMesh}.Build();
  TrafficPattern pattern(topo, PatternKind::kUniform, 1);
  OpenLoopInjector injector(topo, pattern, {});
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(injector.RestoreState(garbage.data(), garbage.size()));
  std::vector<std::uint8_t> blob;
  injector.SaveState(&blob);
  ASSERT_GT(blob.size(), 8u);
  EXPECT_TRUE(injector.RestoreState(blob.data(), blob.size()));
  // Truncation is detected even when the prefix parses.
  EXPECT_FALSE(injector.RestoreState(blob.data(), blob.size() - 5));
}

// ---------------------------------------------------------------------------
// File format: round-trip and the corruption suite.

EngineCheckpointState SampleState() {
  const Topology topo = MeshSpec{2, 6, Wrap::kMesh}.Build();
  return CaptureOneState(topo, {}, 2);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CkptFileTest, WriteReadRoundTrip) {
  const EngineCheckpointState state = SampleState();
  const std::string path = TempPath("roundtrip.mdc");
  std::string error;
  ASSERT_EQ(WriteCheckpointFile(path, state, &error), CkptStatus::kOk)
      << error;

  EngineCheckpointState loaded;
  ASSERT_EQ(ReadCheckpointFile(path, &loaded, nullptr, &error), CkptStatus::kOk)
      << error;
  EXPECT_EQ(loaded.step, state.step);
  EXPECT_EQ(loaded.options_hash, state.options_hash);
  EXPECT_EQ(loaded.in_flight, state.in_flight);
  EXPECT_EQ(loaded.arrivals_total, state.arrivals_total);
  ASSERT_EQ(loaded.queues.size(), state.queues.size());
  for (std::size_t p = 0; p < state.queues.size(); ++p) {
    ASSERT_EQ(loaded.queues[p].size(), state.queues[p].size());
    for (std::size_t i = 0; i < state.queues[p].size(); ++i) {
      EXPECT_EQ(loaded.queues[p][i].id, state.queues[p][i].id);
      EXPECT_EQ(loaded.queues[p][i].dest, state.queues[p][i].dest);
      EXPECT_EQ(loaded.queues[p][i].flags, state.queues[p][i].flags);
      EXPECT_EQ(loaded.queues[p][i].arrived, state.queues[p][i].arrived);
    }
  }
  // The encoded payload is byte-stable: encode(decode(x)) == encode(x).
  EXPECT_EQ(EncodeCheckpoint(loaded), EncodeCheckpoint(state));
}

TEST(CkptFileTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("truncated.mdc");
  ASSERT_EQ(WriteCheckpointFile(path, SampleState(), nullptr), CkptStatus::kOk);
  std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 40u);

  // Torn mid-payload: header intact, payload short.
  std::vector<char> torn(bytes.begin(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(
                                             bytes.size() / 2));
  WriteAll(path, torn);
  EngineCheckpointState out;
  EXPECT_EQ(ReadCheckpointFile(path, &out, nullptr, nullptr),
            CkptStatus::kTruncated);

  // Torn mid-header.
  WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + 10));
  EXPECT_EQ(ReadCheckpointFile(path, &out, nullptr, nullptr),
            CkptStatus::kTruncated);
}

TEST(CkptFileTest, BitFlipIsRejectedByCrc) {
  const std::string path = TempPath("bitflip.mdc");
  ASSERT_EQ(WriteCheckpointFile(path, SampleState(), nullptr), CkptStatus::kOk);
  std::vector<char> bytes = ReadAll(path);
  bytes[bytes.size() - 3] ^= 0x40;  // one bit, deep in the payload
  WriteAll(path, bytes);
  EngineCheckpointState out;
  EXPECT_EQ(ReadCheckpointFile(path, &out, nullptr, nullptr),
            CkptStatus::kBadChecksum);
}

TEST(CkptFileTest, WrongVersionIsRejected) {
  const std::string path = TempPath("version.mdc");
  ASSERT_EQ(WriteCheckpointFile(path, SampleState(), nullptr), CkptStatus::kOk);
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = 99;  // version field follows the 8-byte magic
  WriteAll(path, bytes);
  EngineCheckpointState out;
  EXPECT_EQ(ReadCheckpointFile(path, &out, nullptr, nullptr),
            CkptStatus::kBadVersion);
}

TEST(CkptFileTest, WrongMagicIsRejected) {
  const std::string path = TempPath("magic.mdc");
  ASSERT_EQ(WriteCheckpointFile(path, SampleState(), nullptr), CkptStatus::kOk);
  std::vector<char> bytes = ReadAll(path);
  bytes[0] = 'X';
  WriteAll(path, bytes);
  EngineCheckpointState out;
  EXPECT_EQ(ReadCheckpointFile(path, &out, nullptr, nullptr),
            CkptStatus::kBadMagic);
}

TEST(CkptFileTest, WrongOptionsHashIsRejectedAsBadManifest) {
  const std::string path = TempPath("manifest.mdc");
  const EngineCheckpointState state = SampleState();
  ASSERT_EQ(WriteCheckpointFile(path, state, nullptr), CkptStatus::kOk);
  EngineCheckpointState out;
  const std::uint64_t wrong = state.options_hash ^ 1;
  EXPECT_EQ(ReadCheckpointFile(path, &out, &wrong, nullptr),
            CkptStatus::kBadManifest);
  // And the right hash passes.
  EXPECT_EQ(ReadCheckpointFile(path, &out, &state.options_hash, nullptr),
            CkptStatus::kOk);
}

TEST(CkptFileTest, ValidChecksumOverGarbagePayloadIsBadPayload) {
  // A CRC-correct file whose payload does not decode (e.g. written by a
  // newer minor revision, or corrupted before checksumming) must come back
  // as kBadPayload — decode errors are distinct from integrity errors.
  // Build the 28-byte header by hand around a garbage payload.
  const std::vector<std::uint8_t> garbage(16, 0xAB);
  std::vector<std::uint8_t> file = {'M', 'D', 'M', 'C', 'K', 'P', 'T', '1'};
  auto put32 = [&file](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put64 = [&file](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put32(1);  // format version
  put32(0);  // flags
  put64(garbage.size());
  put32(Crc32(garbage.data(), garbage.size()));
  file.insert(file.end(), garbage.begin(), garbage.end());
  const std::string path = TempPath("garbage.mdc");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  out.close();
  EngineCheckpointState st;
  EXPECT_EQ(ReadCheckpointFile(path, &st, nullptr, nullptr),
            CkptStatus::kBadPayload);
}

TEST(CkptFileTest, IoErrorCarriesErrnoText) {
  EngineCheckpointState out;
  std::string error;
  EXPECT_EQ(ReadCheckpointFile("/nonexistent-dir/nope.mdc", &out, nullptr,
                               &error),
            CkptStatus::kIoError);
  EXPECT_NE(error.find("nope.mdc"), std::string::npos) << error;
  EXPECT_FALSE(error.empty());

  EXPECT_EQ(WriteCheckpointFile("/nonexistent-dir/nope.mdc", SampleState(),
                                &error),
            CkptStatus::kIoError);
  EXPECT_FALSE(error.empty());
}

TEST(CkptFileTest, StatusNamesAreStable) {
  EXPECT_STREQ(CkptStatusName(CkptStatus::kOk), "ok");
  EXPECT_STREQ(CkptStatusName(CkptStatus::kTruncated), "truncated");
  EXPECT_STREQ(CkptStatusName(CkptStatus::kBadChecksum), "bad_checksum");
  EXPECT_STREQ(CkptStatusName(CkptStatus::kBadManifest), "bad_manifest");
}

// ---------------------------------------------------------------------------
// Manager: cadence, rotation, corrupt-generation fallback.

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  // Clear leftovers from a previous run of the same test.
  for (const CheckpointFileInfo& f : CheckpointManager::ListCheckpoints(dir)) {
    std::remove(f.path.c_str());
  }
  return dir;
}

TEST(CheckpointManagerTest, StepCadence) {
  CheckpointOptions copts;
  copts.dir = FreshDir("cadence");
  copts.every_steps = 10;
  CheckpointManager mgr(copts);
  EXPECT_FALSE(mgr.Due(5));
  EXPECT_TRUE(mgr.Due(10));
  EXPECT_TRUE(mgr.Due(37));  // still due until a save advances the clock

  EngineCheckpointState state = SampleState();
  state.step = 37;
  mgr.Save(state, "cadence");
  EXPECT_EQ(mgr.saves(), 1);
  EXPECT_FALSE(mgr.Due(42));
  EXPECT_TRUE(mgr.Due(47));
}

TEST(CheckpointManagerTest, RotationKeepsNewestK) {
  CheckpointOptions copts;
  copts.dir = FreshDir("rotation");
  copts.keep = 2;
  CheckpointManager mgr(copts);
  EngineCheckpointState state = SampleState();
  for (std::int64_t step : {10, 20, 30, 40}) {
    state.step = step;
    mgr.Save(state, "cadence");
  }
  EXPECT_EQ(mgr.saves(), 4);
  const auto files = CheckpointManager::ListCheckpoints(copts.dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].step, 30);
  EXPECT_EQ(files[1].step, 40);
}

TEST(CheckpointManagerTest, RotationHandsTheRetiredFileToTheNextSave) {
  CheckpointOptions copts;
  copts.dir = FreshDir("recycle");
  copts.keep = 2;
  CheckpointManager mgr(copts);
  EngineCheckpointState state = SampleState();
  for (std::int64_t step : {10, 20, 30}) {
    state.step = step;
    mgr.Save(state, "cadence");
  }
  // Generation 10 was retired under the spare name, not deleted...
  struct stat st {};
  ASSERT_EQ(::stat((copts.dir + "/ckpt-spare.tmp").c_str(), &st), 0);
  const ino_t retired = st.st_ino;

  // ...and the next save writes over it, then retires generation 20.
  state.step = 40;
  mgr.Save(state, "cadence");
  ASSERT_EQ(mgr.save_failures(), 0) << mgr.last_error();
  const auto files = CheckpointManager::ListCheckpoints(copts.dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].step, 30);
  EXPECT_EQ(files[1].step, 40);
  ASSERT_EQ(::stat(files[1].path.c_str(), &st), 0);
  EXPECT_EQ(st.st_ino, retired);

  EngineCheckpointState loaded;
  ASSERT_EQ(CheckpointManager::LoadNewestValid(copts.dir, &loaded, nullptr,
                                               nullptr, nullptr),
            CkptStatus::kOk);
  EXPECT_EQ(loaded.step, 40);
}

TEST(CheckpointManagerTest, LoadNewestValidFallsBackPastCorruption) {
  CheckpointOptions copts;
  copts.dir = FreshDir("fallback");
  copts.keep = 5;
  CheckpointManager mgr(copts);
  EngineCheckpointState state = SampleState();
  state.step = 10;
  mgr.Save(state, "cadence");
  state.step = 20;
  mgr.Save(state, "cadence");
  ASSERT_EQ(mgr.save_failures(), 0) << mgr.last_error();

  // Corrupt the newest generation; the older one must win, with the
  // rejection logged.
  const auto files = CheckpointManager::ListCheckpoints(copts.dir);
  ASSERT_EQ(files.size(), 2u);
  std::vector<char> bytes = ReadAll(files[1].path);
  bytes[bytes.size() - 1] ^= 0x55;
  WriteAll(files[1].path, bytes);

  EngineCheckpointState loaded;
  std::string loaded_path;
  std::string log;
  ASSERT_EQ(CheckpointManager::LoadNewestValid(copts.dir, &loaded, nullptr,
                                               &loaded_path, &log),
            CkptStatus::kOk);
  EXPECT_EQ(loaded.step, 10);
  EXPECT_EQ(loaded_path, files[0].path);
  EXPECT_NE(log.find("bad_checksum"), std::string::npos) << log;
}

TEST(CheckpointManagerTest, LoadFromEmptyDirReportsIoError) {
  EngineCheckpointState loaded;
  EXPECT_EQ(CheckpointManager::LoadNewestValid(FreshDir("empty"), &loaded,
                                               nullptr, nullptr, nullptr),
            CkptStatus::kIoError);
}

TEST(CheckpointManagerTest, EndToEndEngineRunWritesResumableFiles) {
  const MeshSpec spec{2, 8, Wrap::kMesh};
  const Topology topo = spec.Build();
  Network initial(topo);
  Rng rng(17);
  FillPermutation(initial, RandomPermutation(topo, rng), topo.dim());

  RunOutput baseline;
  {
    Network net = initial;
    Engine engine(topo, {});
    baseline.result = engine.Route(net);
    baseline.snapshot = OrderedSnapshot(net);
  }

  CheckpointOptions copts;
  copts.dir = FreshDir("end2end");
  copts.every_steps = 4;
  copts.keep = 3;
  CheckpointManager mgr(copts);
  EngineOptions opts;
  opts.checkpoint = &mgr;
  {
    Network net = initial;
    Engine engine(topo, opts);
    engine.Route(net);
  }
  ASSERT_GT(mgr.saves(), 0);
  ASSERT_EQ(mgr.save_failures(), 0) << mgr.last_error();

  EngineCheckpointState loaded;
  std::string loaded_path;
  const std::uint64_t expected = HashEngineOptions({});
  ASSERT_EQ(CheckpointManager::LoadNewestValid(copts.dir, &loaded, &expected,
                                               &loaded_path, nullptr),
            CkptStatus::kOk);
  Network net(topo);
  Engine engine(topo, {});
  RunOutput resumed;
  resumed.result = engine.Resume(net, loaded);
  resumed.snapshot = OrderedSnapshot(net);
  ExpectSameRun(resumed, baseline);
}

}  // namespace
}  // namespace mdmesh
