#include "routing/two_phase.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "net/engine.h"
#include "routing/permutations.h"
#include "util/rng.h"

namespace mdmesh {
namespace {

// The permutation name is a std::string, not a const char*, so gtest
// prints it as text; a pointer would put its load address in the test name.
class TwoPhaseDeliveryTest
    : public ::testing::TestWithParam<std::tuple<int, int, Wrap, std::string>> {};

TEST_P(TwoPhaseDeliveryTest, DeliversEveryPermutation) {
  auto [d, n, wrap, name] = GetParam();
  Topology topo(d, n, wrap);
  std::vector<ProcId> dest;
  if (name == "random") {
    Rng rng(7);
    dest = RandomPermutation(topo, rng);
  } else if (name == "reversal") {
    dest = ReversalPermutation(topo);
  } else {
    dest = TransposePermutation(topo);
  }
  TwoPhaseOptions opts;
  opts.g = 2;
  TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
  EXPECT_TRUE(r.delivered) << "d=" << d << " n=" << n << " perm=" << name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TwoPhaseDeliveryTest,
    ::testing::Values(std::tuple{2, 8, Wrap::kMesh, "random"},
                      std::tuple{2, 8, Wrap::kMesh, "reversal"},
                      std::tuple{2, 8, Wrap::kTorus, "reversal"},
                      std::tuple{2, 16, Wrap::kMesh, "transpose"},
                      std::tuple{3, 6, Wrap::kMesh, "random"},
                      std::tuple{3, 6, Wrap::kTorus, "random"},
                      std::tuple{3, 8, Wrap::kMesh, "reversal"},
                      std::tuple{4, 4, Wrap::kMesh, "reversal"}));

TEST(TwoPhaseTest, MidpointSetsNonEmptyWithPaperNu) {
  // Theorem 5.1 regime: nu = n/2 on the mesh keeps S_nu(X,Y) non-empty for
  // every block pair.
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  EXPECT_GT(MinMidpointSetSize(grid, topo.side() / 2.0), 0);
}

TEST(TwoPhaseTest, MidpointSetGrowsWithNu) {
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 4);
  const std::int64_t tight = MinMidpointSetSize(grid, 0.0);
  const std::int64_t loose = MinMidpointSetSize(grid, topo.side() / 2.0);
  EXPECT_LE(tight, loose);
  EXPECT_GT(loose, 0);
}

TEST(TwoPhaseTest, ReversalStaysNearDPlusN) {
  // Theorem 5.1: D + n + o(n) on the mesh. Allow generous small-n slack but
  // demand clear separation from 2D (what plain greedy needs on permutations
  // that funnel).
  Topology topo(2, 16, Wrap::kMesh);
  TwoPhaseOptions opts;
  opts.g = 2;
  TwoPhaseResult r = RouteTwoPhase(topo, ReversalPermutation(topo), opts);
  EXPECT_TRUE(r.delivered);
  const auto D = static_cast<double>(topo.Diameter());
  EXPECT_LT(static_cast<double>(r.total_steps), 1.9 * D);
}

TEST(TwoPhaseTest, RandomizedVariantAlsoDelivers) {
  Topology topo(2, 8, Wrap::kMesh);
  Rng rng(15);
  auto dest = RandomPermutation(topo, rng);
  TwoPhaseOptions opts;
  opts.g = 2;
  opts.randomized = true;
  opts.seed = 23;
  TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
  EXPECT_TRUE(r.delivered);
}

TEST(TwoPhaseTest, DeterministicGivenSeed) {
  Topology topo(2, 8, Wrap::kMesh);
  auto dest = ReversalPermutation(topo);
  TwoPhaseOptions opts;
  opts.g = 2;
  auto a = RouteTwoPhase(topo, dest, opts);
  auto b = RouteTwoPhase(topo, dest, opts);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.max_queue, b.max_queue);
}

TEST(TwoPhaseTest, IdentityPermutationIsFast) {
  Topology topo(2, 8, Wrap::kMesh);
  TwoPhaseOptions opts;
  opts.g = 2;
  TwoPhaseResult r = RouteTwoPhase(topo, IdentityPermutation(topo), opts);
  EXPECT_TRUE(r.delivered);
  // Packets still take the detour through a midpoint, but never farther
  // than one phase's reach each way.
  EXPECT_LE(r.total_steps, 2 * topo.Diameter());
}

TEST(TwoPhaseTest, TorusUsesTighterNuByDefault) {
  Topology topo(2, 16, Wrap::kTorus);
  auto dest = AntipodalPermutation(topo);
  TwoPhaseOptions opts;
  opts.g = 4;
  TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
  EXPECT_TRUE(r.delivered);
  EXPECT_DOUBLE_EQ(r.nu_used, topo.side() / 16.0);
}


TEST(TwoPhaseTest, OverlappedModeDeliversEverywhere) {
  for (Wrap wrap : {Wrap::kMesh, Wrap::kTorus}) {
    Topology topo(2, 16, wrap);
    Rng rng(19);
    for (auto dest : {RandomPermutation(topo, rng), ReversalPermutation(topo),
                      TransposePermutation(topo)}) {
      TwoPhaseOptions opts;
      opts.g = 2;
      opts.overlap = true;
      TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
      EXPECT_TRUE(r.delivered);
    }
  }
}

TEST(TwoPhaseTest, OverlappedNeverSlowerThanSequential) {
  Topology topo(2, 32, Wrap::kMesh);
  Rng rng(23);
  for (auto dest : {RandomPermutation(topo, rng), ReversalPermutation(topo),
                    TransposePermutation(topo)}) {
    TwoPhaseOptions seq;
    seq.g = 4;
    TwoPhaseOptions ovl = seq;
    ovl.overlap = true;
    TwoPhaseResult a = RouteTwoPhase(topo, dest, seq);
    TwoPhaseResult b = RouteTwoPhase(topo, dest, ovl);
    ASSERT_TRUE(a.delivered);
    ASSERT_TRUE(b.delivered);
    EXPECT_LE(b.total_steps, a.total_steps);
  }
}

TEST(TwoPhaseTest, OverlappedHitsDiameterOnReversalAtScale) {
  // The Section 6 open-question finding (see bench_routing_mesh): with no
  // phase barrier, reversal routes in exactly D steps.
  Topology topo(2, 64, Wrap::kMesh);
  TwoPhaseOptions opts;
  opts.g = 4;
  opts.overlap = true;
  TwoPhaseResult r = RouteTwoPhase(topo, ReversalPermutation(topo), opts);
  ASSERT_TRUE(r.delivered);
  EXPECT_LE(r.total_steps, topo.Diameter() + topo.side() / 4);
}

TEST(TwoPhaseTest, OverlappedMidpointStartRetargetsImmediately) {
  // A packet whose midpoint equals its source must not get stuck.
  Topology topo(1, 8, Wrap::kMesh);
  Network net(topo);
  Packet pkt;
  pkt.id = 0;
  pkt.dest = 3;               // midpoint = source of leg 2
  pkt.tag = 6;                // final destination
  pkt.flags = Packet::kTwoLeg;
  net.Add(3, pkt);            // starts AT the midpoint
  Engine engine(topo);
  RouteResult r = engine.Route(net);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 3);      // straight to the final destination
  EXPECT_EQ(net.At(6).size(), 1u);
}

}  // namespace
}  // namespace mdmesh
