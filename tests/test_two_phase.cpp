#include "routing/two_phase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
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

// Pinned router outcomes. Phase 1's moves are the summed source-to-midpoint
// distances and phase 2's the summed midpoint-to-destination distances
// (overlap runs count both legs in phase 1), so any changed midpoint pick
// moves them.
struct PinCase {
  std::string name;
  int d;
  int n;
  Wrap wrap;
  int g;
  double nu;         // < 0: the paper default
  std::string mode;  // "det", "randomized" or "overlap"
  std::string perm;  // "random" (Rng 11) or "reversal"
  std::int64_t phase1_steps;
  std::int64_t phase1_moves;
  std::int64_t phase2_steps;
  std::int64_t phase2_moves;
  std::int64_t max_queue;
  std::int64_t min_s_size;
};

// gtest would otherwise dump PinCase's bytes, std::string pointers
// included, into the ctest name, which then changes with every build.
void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

class TwoPhasePinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(TwoPhasePinTest, MatchesPinnedRun) {
  const PinCase& c = GetParam();
  Topology topo(c.d, c.n, c.wrap);
  std::vector<ProcId> dest;
  if (c.perm == "random") {
    Rng rng(11);
    dest = RandomPermutation(topo, rng);
  } else {
    dest = ReversalPermutation(topo);
  }
  TwoPhaseOptions opts;
  opts.g = c.g;
  opts.nu = c.nu;
  opts.randomized = c.mode == "randomized";
  opts.overlap = c.mode == "overlap";
  opts.seed = 5;
  const TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.phase1.steps, c.phase1_steps);
  EXPECT_EQ(r.phase1.moves, c.phase1_moves);
  EXPECT_EQ(r.phase2.steps, c.phase2_steps);
  EXPECT_EQ(r.phase2.moves, c.phase2_moves);
  EXPECT_EQ(r.max_queue, c.max_queue);
  EXPECT_EQ(r.min_s_size, c.min_s_size);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TwoPhasePinTest,
    ::testing::Values(
        // m = 2 with nu = 0: S(X,Y) is empty for X != Y, so the fallback
        // block carries those groups and min_s_size reads 0.
        PinCase{"d1_n8_mesh_g2_nu0_det", 1, 8, Wrap::kMesh, 2, 0.0, "det",
                "random", 5, 19, 3, 19, 2, 0},
        PinCase{"d1_n64_torus_g8_det", 1, 64, Wrap::kTorus, 8, -1.0, "det",
                "random", 20, 671, 21, 633, 3, 2},
        PinCase{"d1_n32_mesh_g4_randomized", 1, 32, Wrap::kMesh, 4, -1.0,
                "randomized", "random", 26, 345, 28, 371, 7, 4},
        PinCase{"d2_n16_mesh_g4_det", 2, 16, Wrap::kMesh, 4, -1.0, "det",
                "random", 21, 2603, 23, 2643, 6, 14},
        PinCase{"d2_n16_mesh_g4_nu0_det_reversal", 2, 16, Wrap::kMesh, 4, 0.0,
                "det", "reversal", 17, 2510, 18, 2616, 7, 4},
        PinCase{"d2_n16_torus_g4_randomized", 2, 16, Wrap::kTorus, 4, -1.0,
                "randomized", "random", 13, 1700, 12, 1660, 5, 6},
        PinCase{"d2_n32_mesh_g8_overlap", 2, 32, Wrap::kMesh, 8, -1.0,
                "overlap", "random", 85, 42544, 0, 0, 7, 52},
        PinCase{"d2_n24_torus_g6_det", 2, 24, Wrap::kTorus, 6, 1.5, "det",
                "random", 17, 5386, 18, 5346, 5, 10},
        // Antipodal blocks of this torus share no midpoint block either.
        PinCase{"d3_n8_torus_g2_randomized", 3, 8, Wrap::kTorus, 2, -1.0,
                "randomized", "random", 10, 2564, 10, 2520, 6, 0},
        PinCase{"d3_n8_torus_g4_overlap", 3, 8, Wrap::kTorus, 4, -1.0,
                "overlap", "random", 15, 5014, 0, 0, 5, 20},
        PinCase{"d3_n16_mesh_g8_det", 3, 16, Wrap::kMesh, 8, -1.0, "det",
                "random", 32, 63703, 32, 64559, 8, 400},
        PinCase{"d3_n16_torus_g8_randomized", 3, 16, Wrap::kTorus, 8, -1.0,
                "randomized", "random", 15, 38756, 15, 38588, 7, 92},
        PinCase{"d4_n4_mesh_g2_det", 4, 4, Wrap::kMesh, 2, -1.0, "det",
                "reversal", 8, 1032, 12, 1536, 5, 16},
        PinCase{"d4_n6_torus_g3_randomized", 4, 6, Wrap::kTorus, 3, -1.0,
                "randomized", "random", 10, 7238, 10, 7062, 6, 50},
        PinCase{"d4_n8_mesh_g4_overlap", 4, 8, Wrap::kMesh, 4, -1.0,
                "overlap", "random", 38, 84090, 0, 0, 7, 226}),
    [](const ::testing::TestParamInfo<PinCase>& case_info) {
      return case_info.param.name;
    });

// The reference for MinMidpointSetSize: the direct O(m^3) scan of every
// (X, Y, w) triple through BlockGrid::CenterDist.
std::int64_t BruteMinMidpointSetSize(const BlockGrid& grid, double nu) {
  const double reach = static_cast<double>(grid.topo().Diameter()) / 2.0 + nu;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (BlockId x = 0; x < grid.num_blocks(); ++x) {
    for (BlockId y = 0; y < grid.num_blocks(); ++y) {
      std::int64_t size = 0;
      for (BlockId w = 0; w < grid.num_blocks(); ++w) {
        if (grid.CenterDist(x, w) <= reach && grid.CenterDist(y, w) <= reach) {
          ++size;
        }
      }
      best = std::min(best, size);
    }
  }
  return best;
}

TEST(TwoPhaseTest, MinMidpointSetSizeMatchesBruteForce) {
  struct Case {
    int d;
    int n;
    Wrap wrap;
    int g;
    double nu;
  };
  for (const Case& c : {Case{1, 8, Wrap::kMesh, 2, 0.0},
                        Case{1, 30, Wrap::kTorus, 5, 0.0},
                        Case{2, 16, Wrap::kMesh, 4, 0.0},
                        Case{2, 16, Wrap::kMesh, 4, 8.0},
                        Case{2, 16, Wrap::kTorus, 4, 0.0},
                        Case{2, 16, Wrap::kTorus, 4, 1.0},
                        Case{2, 24, Wrap::kTorus, 6, 1.5},
                        Case{2, 32, Wrap::kMesh, 8, 2.5},
                        Case{3, 8, Wrap::kMesh, 4, 4.0},
                        Case{3, 12, Wrap::kTorus, 3, 0.75},
                        Case{4, 4, Wrap::kMesh, 2, 2.0},
                        Case{4, 6, Wrap::kTorus, 3, 0.0}}) {
    Topology topo(c.d, c.n, c.wrap);
    BlockGrid grid(topo, c.g);
    EXPECT_EQ(MinMidpointSetSize(grid, c.nu), BruteMinMidpointSetSize(grid, c.nu))
        << "d=" << c.d << " n=" << c.n << " torus=" << (c.wrap == Wrap::kTorus)
        << " g=" << c.g << " nu=" << c.nu;
  }
  // The fallback case pinned above: two blocks of side 4 on a 1D mesh with
  // nu = 0 have no common midpoint block.
  Topology line(1, 8, Wrap::kMesh);
  EXPECT_EQ(MinMidpointSetSize(BlockGrid(line, 2), 0.0), 0);
}

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
