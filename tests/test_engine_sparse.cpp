// Sparse active-set engine path vs the dense full-mesh sweep. The two
// traversal modes (and the fused pipeline vs the checker's two-phase step)
// must be byte-identical: same step counts, same move counts, same final
// queue contents *in the same order*, for any thread count, with or
// without a fault plan. These tests pin that contract and the kAuto
// crossover behavior.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fault/fault_plan.h"
#include "net/engine.h"
#include "obs/probe.h"
#include "routing/permutations.h"
#include "routing/two_phase.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// Byte-level view of a network: per processor, the (key, id, dest,
/// arrived, flags) tuples *in queue order*. Stricter than the differential
/// tests' sorted canonical form — sparse and dense must agree on ordering
/// too, since the commit pass appends incomers in canonical link order
/// either way.
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

RunOutput RunOnce(const Topology& topo, const Network& initial,
                  EngineOptions opts) {
  Network net = initial;
  Engine engine(topo, opts);
  RunOutput out;
  out.result = engine.Route(net);
  out.snapshot = OrderedSnapshot(net);
  return out;
}

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

EngineOptions Opts(SparseMode mode, double threshold = 0.5) {
  EngineOptions opts;
  opts.sparse = mode;
  opts.sparse_threshold = threshold;
  opts.invariants = InvariantMode::kOff;  // exercise the fused pipeline
  return opts;
}

class SparseVsDenseTest
    : public ::testing::TestWithParam<std::tuple<int, int, Wrap>> {};

TEST_P(SparseVsDenseTest, AllModesAgreeOnPermutations) {
  auto [d, n, wrap] = GetParam();
  Topology topo(d, n, wrap);
  Rng rng(static_cast<std::uint64_t>(17 * d + n));
  std::vector<std::vector<ProcId>> perms = {
      ReversalPermutation(topo), TransposePermutation(topo),
      RandomPermutation(topo, rng)};
  for (const auto& dest : perms) {
    Network net(topo);
    FillPermutation(net, dest, d);
    const RunOutput dense = RunOnce(topo, net, Opts(SparseMode::kNever));
    const RunOutput sparse = RunOnce(topo, net, Opts(SparseMode::kAlways));
    const RunOutput hybrid = RunOnce(topo, net, Opts(SparseMode::kAuto));
    EXPECT_TRUE(dense.result.completed);
    EXPECT_EQ(dense.result.sparse_steps, 0);
    EXPECT_EQ(sparse.result.sparse_steps, sparse.result.steps);
    ExpectSameRun(dense, sparse);
    ExpectSameRun(dense, hybrid);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SparseVsDenseTest,
                         ::testing::Values(std::tuple{1, 16, Wrap::kMesh},
                                           std::tuple{2, 8, Wrap::kMesh},
                                           std::tuple{2, 8, Wrap::kTorus},
                                           std::tuple{3, 4, Wrap::kMesh},
                                           std::tuple{3, 4, Wrap::kTorus},
                                           std::tuple{4, 3, Wrap::kMesh}));

TEST(SparseVsDenseTest, IdenticalAtEveryThreadCount) {
  // The 3D n=41 mesh (68921 processors) gives each of 4 workers thousands
  // of processors per pass, so every worker's mailbox arena is in use.
  struct Case {
    Topology topo;
    std::vector<unsigned> workers;
  };
  const Case cases[] = {{Topology(2, 12, Wrap::kTorus), {0u, 2u, 8u}},
                        {Topology(3, 41, Wrap::kMesh), {0u, 4u}}};
  for (const Case& c : cases) {
    Rng rng(7);
    Network net(c.topo);
    FillPermutation(net, RandomPermutation(c.topo, rng), c.topo.dim());
    const RunOutput serial = RunOnce(c.topo, net, Opts(SparseMode::kNever));
    for (unsigned workers : c.workers) {
      ThreadPool pool(workers);
      for (SparseMode mode :
           {SparseMode::kNever, SparseMode::kAlways, SparseMode::kAuto}) {
        EngineOptions opts = Opts(mode);
        opts.pool = &pool;
        ExpectSameRun(serial, RunOnce(c.topo, net, opts));
      }
    }
  }
}

TEST(SparseVsDenseTest, IdenticalUnderFaults) {
  Topology topo(2, 10, Wrap::kTorus);
  FaultSpec spec;
  spec.link_rate = 0.02;
  spec.flap_rate = 0.02;
  const FaultPlan plan = FaultPlan::Random(topo, spec, /*seed=*/11);
  Rng rng(11);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 2);
  ThreadPool pool(4);
  RunOutput dense;
  bool first = true;
  for (SparseMode mode :
       {SparseMode::kNever, SparseMode::kAlways, SparseMode::kAuto}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EngineOptions opts = Opts(mode);
      opts.faults = &plan;
      opts.pool = p;
      RunOutput out = RunOnce(topo, net, opts);
      EXPECT_TRUE(out.result.completed);
      if (first) {
        dense = out;
        first = false;
      } else {
        ExpectSameRun(dense, out);
      }
    }
  }
  EXPECT_GT(dense.result.detours, 0);  // the plan actually forced rerouting
}

TEST(SparseVsDenseTest, AutoCrossesOverMidRun) {
  // A full permutation starts at occupancy 1.0 (dense) and drains below
  // the 0.5 default threshold partway through: kAuto must run *both*
  // paths in one Route call and still match the dense-only run.
  Topology topo(2, 24, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, ReversalPermutation(topo), 2);
  const RunOutput dense = RunOnce(topo, net, Opts(SparseMode::kNever));
  const RunOutput hybrid = RunOnce(topo, net, Opts(SparseMode::kAuto));
  EXPECT_GT(hybrid.result.sparse_steps, 0);
  EXPECT_LT(hybrid.result.sparse_steps, hybrid.result.steps);
  ExpectSameRun(dense, hybrid);
}

TEST(SparseVsDenseTest, ThresholdExtremes) {
  Topology topo(2, 12, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, ReversalPermutation(topo), 2);
  const RunOutput never_sparse =
      RunOnce(topo, net, Opts(SparseMode::kAuto, /*threshold=*/0.0));
  EXPECT_EQ(never_sparse.result.sparse_steps, 0);
  const RunOutput eager =
      RunOnce(topo, net, Opts(SparseMode::kAuto, /*threshold=*/1.0));
  EXPECT_EQ(eager.result.sparse_steps, eager.result.steps);
  ExpectSameRun(never_sparse, eager);
}

TEST(SparseVsDenseTest, CheckerPathMatchesFusedPipeline) {
  // InvariantMode::kOn makes every pass clean (bid, CheckSlots, commit,
  // CheckStep); kOff pipelines each commit with the next step's bid. Same
  // results either way — with the per-step invariant checker validating
  // the sparse run as it goes.
  Topology topo(3, 5, Wrap::kMesh);
  Rng rng(23);
  Network net(topo);
  FillPermutation(net, RandomPermutation(topo, rng), 3);
  FaultSpec spec;
  spec.link_rate = 0.01;
  const FaultPlan plan = FaultPlan::Random(topo, spec, /*seed=*/5);
  for (const FaultPlan* faults :
       {static_cast<const FaultPlan*>(nullptr), &plan}) {
    RunOutput fused;
    bool first = true;
    for (InvariantMode inv : {InvariantMode::kOff, InvariantMode::kOn}) {
      for (SparseMode mode : {SparseMode::kNever, SparseMode::kAlways}) {
        EngineOptions opts = Opts(mode);
        opts.invariants = inv;
        opts.faults = faults;
        RunOutput out = RunOnce(topo, net, opts);
        if (first) {
          fused = out;
          first = false;
        } else {
          ExpectSameRun(fused, out);
        }
      }
    }
  }
}

TEST(SparseVsDenseTest, TwoPhaseRoutingAgrees) {
  // End-to-end through the Section 5 two-phase router, including the
  // overlapped variant (two-leg packets retarget mid-flight, which
  // exercises the midpoint rewrite inside the sparse commit pass).
  Topology topo(2, 16, Wrap::kMesh);
  const std::vector<ProcId> dest = ReversalPermutation(topo);
  for (bool overlap : {false, true}) {
    TwoPhaseOptions base;
    base.g = 4;
    base.overlap = overlap;
    base.engine.invariants = InvariantMode::kOff;
    base.engine.sparse = SparseMode::kNever;
    TwoPhaseOptions sparse = base;
    sparse.engine.sparse = SparseMode::kAlways;
    const TwoPhaseResult a = RouteTwoPhase(topo, dest, base);
    const TwoPhaseResult b = RouteTwoPhase(topo, dest, sparse);
    EXPECT_TRUE(a.delivered);
    EXPECT_TRUE(b.delivered);
    EXPECT_EQ(a.total_steps, b.total_steps);
    EXPECT_EQ(a.max_queue, b.max_queue);
    EXPECT_EQ(a.phase1.steps, b.phase1.steps);
    EXPECT_EQ(a.phase2.steps, b.phase2.steps);
    EXPECT_EQ(a.phase1.moves, b.phase1.moves);
    EXPECT_EQ(a.phase2.moves, b.phase2.moves);
  }
}

/// Captures the per-step active-set size reported through StepSnapshot.
class ActiveProcsProbe final : public StepProbe {
 public:
  void OnStep(const StepSnapshot& snapshot) override {
    active.push_back(snapshot.active_procs);
  }
  std::vector<std::int64_t> active;
};

TEST(SparseVsDenseTest, ProbeReportsActiveSetSizeOnlyWhenSparse) {
  Topology topo(2, 12, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, ReversalPermutation(topo), 2);
  {
    ActiveProcsProbe probe;
    EngineOptions opts = Opts(SparseMode::kNever);
    opts.probe = &probe;
    RunOnce(topo, net, opts);
    for (std::int64_t a : probe.active) EXPECT_EQ(a, -1);
  }
  {
    ActiveProcsProbe probe;
    EngineOptions opts = Opts(SparseMode::kAlways);
    opts.probe = &probe;
    Network run = net;
    Engine engine(topo, opts);
    engine.Route(run);
    ASSERT_FALSE(probe.active.empty());
    for (std::int64_t a : probe.active) EXPECT_GE(a, 0);
    // The set shrinks to nothing as the drain completes.
    EXPECT_EQ(probe.active.back(), 0);
    EXPECT_GT(probe.active.front(), 0);
  }
}

TEST(SparseVsDenseTest, EngineRecoversAfterAbortedRun) {
  // Abort mid-flight via a tiny step cap: the pipeline has speculative
  // next-step bids already scattered into the mailbox. A subsequent Route
  // on the same engine must not see them (stale deliveries would
  // duplicate packets) and must finish the job.
  Topology topo(2, 12, Wrap::kMesh);
  Network net(topo);
  FillPermutation(net, ReversalPermutation(topo), 2);
  for (SparseMode mode : {SparseMode::kNever, SparseMode::kAlways}) {
    Network run = net;
    EngineOptions opts = Opts(mode);
    opts.step_cap = 3;
    Engine engine(topo, opts);
    RouteResult first = engine.Route(run);
    EXPECT_FALSE(first.completed);
    EXPECT_EQ(run.TotalPackets(), topo.size());
    RouteResult second = engine.Route(run);
    EXPECT_FALSE(second.completed);  // cap 3 is still too small
    RouteResult third;
    do {
      third = engine.Route(run);
    } while (!third.completed);
    EXPECT_EQ(run.TotalPackets(), topo.size());
    std::int64_t misplaced = 0;
    run.ForEach([&](ProcId p, const Packet& pkt) {
      if (pkt.dest != p) ++misplaced;
    });
    EXPECT_EQ(misplaced, 0);
  }
}

TEST(SparseVsDenseTest, ReusedEngineMatchesFreshEngine) {
  // Per-call state (mailbox parity buffers, active set, scratch) must
  // fully reset between Route calls on one Engine instance.
  Topology topo(2, 10, Wrap::kTorus);
  Rng rng(41);
  const std::vector<ProcId> first = RandomPermutation(topo, rng);
  const std::vector<ProcId> second = ReversalPermutation(topo);
  EngineOptions opts = Opts(SparseMode::kAuto);
  Engine reused(topo, opts);
  Network warmup(topo);
  FillPermutation(warmup, first, 2);
  reused.Route(warmup);
  Network via_reused(topo);
  FillPermutation(via_reused, second, 2);
  const RouteResult r1 = reused.Route(via_reused);
  Network via_fresh(topo);
  FillPermutation(via_fresh, second, 2);
  Engine fresh(topo, opts);
  const RouteResult r2 = fresh.Route(via_fresh);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.moves, r2.moves);
  EXPECT_EQ(OrderedSnapshot(via_reused), OrderedSnapshot(via_fresh));
}

}  // namespace
}  // namespace mdmesh
