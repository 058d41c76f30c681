// Differential testing: the optimized Engine vs the literal ReferenceEngine
// re-implementation of the model semantics. Any divergence in step counts,
// move counts, queue maxima, arrival times, or final placement is a
// semantics bug in one of them. Open-loop runs additionally compare every
// OnDeliver callback, in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/engine.h"
#include "net/reference_engine.h"
#include "routing/permutations.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/driver.h"
#include "workload/patterns.h"

namespace mdmesh {
namespace {

/// Canonical form of a network's contents: per processor, the sorted
/// (key, id, dest, arrived) tuples (queue order is unspecified).
using Snapshot =
    std::vector<std::vector<std::tuple<std::uint64_t, std::int64_t, ProcId, std::int32_t>>>;

Snapshot Canonicalize(const Network& net) {
  Snapshot snap(static_cast<std::size_t>(net.topo().size()));
  net.ForEach([&](ProcId p, const Packet& pkt) {
    snap[static_cast<std::size_t>(p)].emplace_back(pkt.key, pkt.id, pkt.dest,
                                                   pkt.arrived);
  });
  for (auto& q : snap) std::sort(q.begin(), q.end());
  return snap;
}

void ExpectIdenticalRuns(const Topology& topo, const Network& initial) {
  Network a = initial;
  Network b = initial;
  Engine optimized(topo);
  ReferenceEngine reference(topo);
  RouteResult ra = optimized.Route(a);
  RouteResult rb = reference.Route(b);
  EXPECT_EQ(ra.steps, rb.steps);
  EXPECT_EQ(ra.moves, rb.moves);
  EXPECT_EQ(ra.max_queue, rb.max_queue);
  EXPECT_EQ(ra.packets, rb.packets);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.max_distance, rb.max_distance);
  EXPECT_EQ(ra.max_overshoot, rb.max_overshoot);
  EXPECT_EQ(ra.links, rb.links);
  EXPECT_EQ(Canonicalize(a), Canonicalize(b));
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, Wrap, int>> {};

TEST_P(DifferentialTest, EnginesAgreeOnRandomLoads) {
  auto [d, n, wrap, perms] = GetParam();
  Topology topo(d, n, wrap);
  Network net(topo);
  Rng rng(static_cast<std::uint64_t>(1000 * d + 10 * n + perms));
  std::int64_t id = 0;
  for (int t = 0; t < perms; ++t) {
    Rng perm_rng = rng.Split(static_cast<std::uint64_t>(t));
    auto dest = RandomPermutation(topo, perm_rng);
    for (ProcId p = 0; p < topo.size(); ++p) {
      Packet pkt;
      pkt.id = id++;
      pkt.key = static_cast<std::uint64_t>(pkt.id);
      pkt.dest = dest[static_cast<std::size_t>(p)];
      pkt.klass = static_cast<std::uint16_t>(t % d);
      net.Add(p, pkt);
    }
  }
  ExpectIdenticalRuns(topo, net);
}

// Six packets per processor, so queues spill out of PacketQueue's inline
// storage through every step of a Route; a 68921-processor mesh, where the
// mailbox arenas carry tens of thousands of packets per step; and four
// tori whose odd sides, n = 2 (both directions reach the same neighbor)
// and 1D ring exercise the receiver's wrap arithmetic.
INSTANTIATE_TEST_SUITE_P(Workloads, DifferentialTest,
                         ::testing::Values(std::tuple{1, 12, Wrap::kMesh, 1},
                                           std::tuple{2, 6, Wrap::kMesh, 1},
                                           std::tuple{2, 6, Wrap::kMesh, 3},
                                           std::tuple{2, 6, Wrap::kTorus, 2},
                                           std::tuple{2, 8, Wrap::kTorus, 4},
                                           std::tuple{3, 4, Wrap::kMesh, 2},
                                           std::tuple{3, 4, Wrap::kTorus, 3},
                                           std::tuple{4, 3, Wrap::kMesh, 1},
                                           std::tuple{2, 8, Wrap::kMesh, 6},
                                           std::tuple{3, 41, Wrap::kMesh, 1},
                                           std::tuple{1, 9, Wrap::kTorus, 1},
                                           std::tuple{2, 5, Wrap::kTorus, 2},
                                           std::tuple{2, 2, Wrap::kTorus, 3},
                                           std::tuple{3, 3, Wrap::kTorus, 2}));

TEST(DifferentialTest, AgreeOnStructuredPermutations) {
  for (Wrap wrap : {Wrap::kMesh, Wrap::kTorus}) {
    Topology topo(2, 8, wrap);
    for (auto dest : {ReversalPermutation(topo), TransposePermutation(topo)}) {
      Network net(topo);
      for (ProcId p = 0; p < topo.size(); ++p) {
        Packet pkt;
        pkt.id = p;
        pkt.dest = dest[static_cast<std::size_t>(p)];
        net.Add(p, pkt);
      }
      ExpectIdenticalRuns(topo, net);
    }
  }
}

TEST(DifferentialTest, AgreeOnTwoLegPackets) {
  Topology topo(2, 8, Wrap::kMesh);
  Rng rng(99);
  Network net(topo);
  auto mid = RandomPermutation(topo, rng);
  auto fin = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = mid[static_cast<std::size_t>(p)];
    pkt.tag = fin[static_cast<std::size_t>(p)];
    pkt.flags = Packet::kTwoLeg;
    pkt.klass = static_cast<std::uint16_t>(p % 2);
    net.Add(p, pkt);
  }
  ExpectIdenticalRuns(topo, net);
}

TEST(DifferentialTest, AgreeOnFunnel) {
  // Heavy contention: everyone targets one corner.
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = 0;
    net.Add(p, pkt);
  }
  ExpectIdenticalRuns(topo, net);
}

TEST(DifferentialTest, AgreeOnEmptyAndTrivial) {
  Topology topo(2, 4, Wrap::kMesh);
  Network empty(topo);
  ExpectIdenticalRuns(topo, empty);

  Network home(topo);
  Packet pkt;
  pkt.id = 1;
  pkt.dest = 5;
  home.Add(5, pkt);
  ExpectIdenticalRuns(topo, home);
}

// ---------------------------------------------------------------------------
// Open-loop injection: Engine vs ReferenceEngine under the StepInjector
// contract.

/// One OnDeliver callback: (packet id, injection step, arrival step,
/// callback step).
using Delivery =
    std::tuple<std::int64_t, std::int64_t, std::int32_t, std::int64_t>;

/// Forwards to an inner injector and records every OnDeliver in order.
class RecordingInjector final : public StepInjector {
 public:
  explicit RecordingInjector(StepInjector* inner) : inner_(inner) {}

  InjectAction Inject(std::int64_t step,
                      std::vector<std::pair<ProcId, Packet>>* out) override {
    return inner_->Inject(step, out);
  }
  void OnDeliver(const Packet& pkt, std::int64_t step) override {
    deliveries.emplace_back(pkt.id, pkt.tag, pkt.arrived, step);
    inner_->OnDeliver(pkt, step);
  }

  std::vector<Delivery> deliveries;

 private:
  StepInjector* inner_;
};

/// Drops 2-3 packets per step on one source (the source moves every third
/// step), so fresh packets contend with each other and with resident
/// traffic for the same outgoing link in the step they arrive — a case
/// OpenLoopInjector, which injects at most once per source per step, never
/// produces. Every fifth packet is injected at its own destination.
class BurstInjector final : public StepInjector {
 public:
  BurstInjector(const Topology& topo, std::int64_t horizon, InjectAction last)
      : topo_(&topo), horizon_(horizon), last_(last), rng_(17) {}

  InjectAction Inject(std::int64_t step,
                      std::vector<std::pair<ProcId, Packet>>* out) override {
    const ProcId n = topo_->size();
    const ProcId src = (step / 3 * 7) % n;
    const int count = 2 + static_cast<int>(step % 2);
    for (int i = 0; i < count; ++i) {
      Packet pkt;
      pkt.id = next_id_++;
      pkt.key = static_cast<std::uint64_t>(pkt.id);
      pkt.dest = pkt.id % 5 == 0
                     ? src
                     : static_cast<ProcId>(
                           rng_.Below(static_cast<std::uint64_t>(n)));
      pkt.klass = static_cast<std::uint16_t>(pkt.id % topo_->dim());
      out->emplace_back(src, pkt);
    }
    return step >= horizon_ ? last_ : InjectAction::kContinue;
  }

 private:
  const Topology* topo_;
  std::int64_t horizon_;
  InjectAction last_;
  Rng rng_;
  std::int64_t next_id_ = 1000000;  // clear of any preloaded ids
};

using InjectorFactory = std::function<std::unique_ptr<StepInjector>()>;

/// Runs the reference once and the engine at every traversal mode, serial
/// and with four workers, from the same preloaded network and a fresh
/// injector each; everything the contract fixes must agree.
void ExpectIdenticalInjectorRuns(const Topology& topo, const Network& initial,
                                 const InjectorFactory& make) {
  const std::unique_ptr<StepInjector> ref_inner = make();
  RecordingInjector ref_rec(ref_inner.get());
  Network ref_net = initial;
  ReferenceEngine reference(topo, 0, &ref_rec);
  const RouteResult rb = reference.Route(ref_net);
  ASSERT_FALSE(ref_rec.deliveries.empty());

  ThreadPool serial(0);
  ThreadPool four(4);
  for (SparseMode mode :
       {SparseMode::kNever, SparseMode::kAlways, SparseMode::kAuto}) {
    for (ThreadPool* pool : {&serial, &four}) {
      SCOPED_TRACE(std::string("sparse=") + SparseModeName(mode) +
                   " workers=" + std::to_string(pool->workers()));
      const std::unique_ptr<StepInjector> inner = make();
      RecordingInjector rec(inner.get());
      EngineOptions opts;
      opts.sparse = mode;
      opts.pool = pool;
      opts.injector = &rec;
      Engine engine(topo, opts);
      Network net = initial;
      const RouteResult ra = engine.Route(net);
      EXPECT_EQ(rec.deliveries, ref_rec.deliveries);
      EXPECT_EQ(ra.steps, rb.steps);
      EXPECT_EQ(ra.moves, rb.moves);
      EXPECT_EQ(ra.max_queue, rb.max_queue);
      EXPECT_EQ(ra.packets, rb.packets);
      EXPECT_EQ(ra.max_overshoot, rb.max_overshoot);
      EXPECT_EQ(ra.max_distance, rb.max_distance);
      EXPECT_EQ(ra.completed, rb.completed);
      EXPECT_EQ(Canonicalize(net), Canonicalize(ref_net));
    }
  }
}

InjectorFactory OpenLoop(const Topology& topo, double rate,
                         std::int64_t measure, bool drain) {
  // The pattern outlives every injector the factory makes.
  auto pattern = std::make_shared<TrafficPattern>(topo, PatternKind::kUniform, 3);
  return [&topo, pattern, rate, measure, drain] {
    DriverOptions dopts;
    dopts.rate = rate;
    dopts.warmup_steps = 20;
    dopts.measure_steps = measure;
    dopts.drain = drain;
    dopts.seed = 5;
    std::unique_ptr<StepInjector> inj =
        std::make_unique<OpenLoopInjector>(topo, *pattern, dopts);
    return inj;
  };
}

TEST(DifferentialTest, OpenLoopUniformMesh2DBelowSaturation) {
  Topology topo(2, 8, Wrap::kMesh);
  ExpectIdenticalInjectorRuns(topo, Network(topo),
                              OpenLoop(topo, 0.1, 80, /*drain=*/true));
}

TEST(DifferentialTest, OpenLoopUniformMesh2DAboveSaturation) {
  Topology topo(2, 8, Wrap::kMesh);
  ExpectIdenticalInjectorRuns(topo, Network(topo),
                              OpenLoop(topo, 0.9, 40, /*drain=*/true));
}

TEST(DifferentialTest, OpenLoopUniformTorus3DBelowSaturation) {
  Topology topo(3, 4, Wrap::kTorus);
  ExpectIdenticalInjectorRuns(topo, Network(topo),
                              OpenLoop(topo, 0.1, 80, /*drain=*/true));
}

TEST(DifferentialTest, OpenLoopUniformTorus3DAboveSaturation) {
  Topology topo(3, 4, Wrap::kTorus);
  ExpectIdenticalInjectorRuns(topo, Network(topo),
                              OpenLoop(topo, 0.9, 40, /*drain=*/true));
}

TEST(DifferentialTest, OpenLoopFixedHorizonStops) {
  // kStop: the run ends with undelivered packets still queued.
  Topology topo(2, 6, Wrap::kTorus);
  ExpectIdenticalInjectorRuns(topo, Network(topo),
                              OpenLoop(topo, 0.4, 60, /*drain=*/false));
}

TEST(DifferentialTest, OpenLoopWithPreloadsIncludingZeroHop) {
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  Rng rng(41);
  const auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.key = static_cast<std::uint64_t>(p);
    // Every seventh processor keeps its packet: a zero-hop preload.
    pkt.dest = p % 7 == 0 ? p : dest[static_cast<std::size_t>(p)];
    pkt.klass = static_cast<std::uint16_t>(p % 2);
    net.Add(p, pkt);
  }
  // The uniform injector's ids start at 0, so shift the preloads clear.
  net.ForEach([](ProcId, Packet& pkt) { pkt.id += 1 << 20; });
  ExpectIdenticalInjectorRuns(topo, net,
                              OpenLoop(topo, 0.1, 40, /*drain=*/true));
}

TEST(DifferentialTest, BurstInjectionOnOneSourceDrains) {
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  for (ProcId p = 0; p < topo.size(); p += 5) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = topo.size() - 1 - p;
    net.Add(p, pkt);
  }
  ExpectIdenticalInjectorRuns(topo, net, [&topo] {
    std::unique_ptr<StepInjector> inj =
        std::make_unique<BurstInjector>(topo, 40, InjectAction::kDrain);
    return inj;
  });
}

TEST(DifferentialTest, BurstInjectionOnTorusStops) {
  Topology topo(3, 4, Wrap::kTorus);
  ExpectIdenticalInjectorRuns(topo, Network(topo), [&topo] {
    std::unique_ptr<StepInjector> inj =
        std::make_unique<BurstInjector>(topo, 50, InjectAction::kStop);
    return inj;
  });
}

}  // namespace
}  // namespace mdmesh
