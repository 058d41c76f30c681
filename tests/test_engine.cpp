#include "net/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "sorting/verify.h"
#include "util/rng.h"

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

TEST(EngineTest, SinglePacketTravelsExactlyItsDistance) {
  Topology topo(2, 8, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  net.Add(0, MakePacket(0, topo.size() - 1));  // corner to corner
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, topo.Diameter());
  EXPECT_EQ(r.max_overshoot, 0);
  EXPECT_EQ(r.moves, topo.Diameter());
  EXPECT_EQ(net.At(topo.size() - 1).size(), 1u);
}

TEST(EngineTest, PacketAlreadyHomeTakesZeroSteps) {
  Topology topo(2, 4, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  net.Add(5, MakePacket(0, 5));
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 0);
  EXPECT_EQ(net.At(5)[0].arrived, 0);
}

TEST(EngineTest, TorusUsesWraparound) {
  Topology topo(1, 8, Wrap::kTorus);
  Engine engine(topo);
  Network net(topo);
  net.Add(0, MakePacket(0, 7));  // one hop backwards through the wrap
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 1);
}

TEST(EngineTest, DimensionOrderRespected) {
  // A class-0 packet corrects dimension 0 first: from (0,0) to (2,2) it must
  // pass through (2,0). We detect this by checking the step count of a
  // second packet that blocks the dimension-0 lane.
  Topology topo(2, 4, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  Point target{};
  target[0] = 2;
  target[1] = 2;
  net.Add(0, MakePacket(0, topo.Id(target), /*klass=*/0));
  RouteResult r = engine.Route(net);
  EXPECT_EQ(r.steps, 4);
  EXPECT_TRUE(r.completed);
}

TEST(EngineTest, RotatedClassCorrectsHigherDimensionFirst) {
  // klass=1 on a 2D mesh corrects dimension 1 first, so two packets with
  // crossing paths but different classes never contend.
  Topology topo(2, 6, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  Point a{}, b{};
  a[0] = 5;  // (5, 0)
  b[1] = 5;  // (0, 5)
  net.Add(0, MakePacket(0, topo.Id(a), 0));
  net.Add(0, MakePacket(1, topo.Id(b), 1));
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 5);  // both leave in step 1 on different links
  EXPECT_EQ(r.max_overshoot, 0);
}

TEST(EngineTest, ContentionDelaysLoser) {
  // Two packets at the same processor want the same link; farthest-first
  // gives the link to the one with more distance to go.
  Topology topo(1, 8, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  net.Add(0, MakePacket(0, 3));  // shorter trip
  net.Add(0, MakePacket(1, 7));  // longer trip: wins the first step
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 7);  // the long packet is never delayed
  // The short packet left one step late: overshoot exactly 1.
  EXPECT_EQ(r.max_overshoot, 1);
}

TEST(EngineTest, FarthestFirstTieBreaksById) {
  Topology topo(1, 8, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  net.Add(0, MakePacket(7, 5));
  net.Add(0, MakePacket(3, 5));  // same distance, smaller id wins
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  // Winner arrives at step 5; loser trails one behind into the same dest.
  EXPECT_EQ(r.steps, 6);
}

TEST(EngineTest, ConservationOfPackets) {
  Topology topo(2, 6, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  Rng rng(5);
  auto dest = rng.Permutation(topo.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    net.Add(p, MakePacket(p, dest[static_cast<std::size_t>(p)]));
  }
  const std::int64_t before = net.TotalPackets();
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(net.TotalPackets(), before);
  EXPECT_TRUE(VerifyAllDelivered(net));
}

class EnginePermutationTest
    : public ::testing::TestWithParam<std::tuple<int, int, Wrap>> {};

TEST_P(EnginePermutationTest, RandomPermutationDelivers) {
  auto [d, n, wrap] = GetParam();
  Topology topo(d, n, wrap);
  Engine engine(topo);
  Network net(topo);
  Rng rng(static_cast<std::uint64_t>(d * 100 + n));
  auto dest = rng.Permutation(topo.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt = MakePacket(p, dest[static_cast<std::size_t>(p)]);
    pkt.klass = static_cast<std::uint16_t>(p % d);
    net.Add(p, pkt);
  }
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(VerifyAllDelivered(net));
  EXPECT_LE(r.steps, 3 * topo.Diameter() + 16);  // no pathological blowup
  EXPECT_GE(r.steps, r.max_distance);            // cannot beat distance
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnginePermutationTest,
                         ::testing::Values(std::tuple{1, 16, Wrap::kMesh},
                                           std::tuple{2, 8, Wrap::kMesh},
                                           std::tuple{2, 8, Wrap::kTorus},
                                           std::tuple{3, 5, Wrap::kMesh},
                                           std::tuple{3, 6, Wrap::kTorus},
                                           std::tuple{4, 4, Wrap::kMesh}));

TEST(EngineTest, StepCapReportsIncomplete) {
  Topology topo(2, 8, Wrap::kMesh);
  EngineOptions opts;
  opts.step_cap = 2;  // far too small for a corner-to-corner trip
  Engine engine(topo, opts);
  Network net(topo);
  net.Add(0, MakePacket(0, topo.size() - 1));
  RouteResult r = engine.Route(net);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.steps, 2);
}

TEST(EngineTest, RejectsTopologyBeyondMailboxHandles) {
  // A mailbox handle is (arena index << worker bits) | worker in 32 bits.
  // 2^32 processors x 4 links cannot fit even serially; 2^26 x 4 fits
  // serially but not beside 5 worker bits. Both refuse before allocating.
  EXPECT_THROW(Engine(Topology(2, 65536, Wrap::kMesh)), std::invalid_argument);
  ThreadPool pool(32);
  EngineOptions opts;
  opts.pool = &pool;
  EXPECT_THROW(Engine(Topology(2, 8192, Wrap::kMesh), opts),
               std::invalid_argument);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  Topology topo(2, 8, Wrap::kMesh);
  auto run = [&] {
    Engine engine(topo);
    Network net(topo);
    Rng rng(77);
    auto dest = rng.Permutation(topo.size());
    for (ProcId p = 0; p < topo.size(); ++p) {
      net.Add(p, MakePacket(p, dest[static_cast<std::size_t>(p)]));
    }
    return engine.Route(net).steps;
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  Topology topo(2, 8, Wrap::kMesh);
  auto run = [&](unsigned workers) {
    ThreadPool pool(workers);
    EngineOptions opts;
    opts.pool = &pool;
    Engine engine(topo, opts);
    Network net(topo);
    Rng rng(78);
    auto dest = rng.Permutation(topo.size());
    for (ProcId p = 0; p < topo.size(); ++p) {
      net.Add(p, MakePacket(p, dest[static_cast<std::size_t>(p)]));
    }
    RouteResult r = engine.Route(net);
    return std::tuple{r.steps, r.moves, r.max_queue};
  };
  EXPECT_EQ(run(0), run(4));
}

TEST(EngineTest, QueueGrowthIsTracked) {
  // Funnel: everyone targets one processor; max_queue must reach N-ish.
  Topology topo(1, 8, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  for (ProcId p = 0; p < topo.size(); ++p) net.Add(p, MakePacket(p, 0));
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.max_queue, topo.size());
}

}  // namespace
}  // namespace mdmesh
