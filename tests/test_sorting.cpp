#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "sorting/kk_sort.h"
#include "sorting/simple_sort.h"

namespace mdmesh {
namespace {

// gtest names each case by dumping this struct's bytes. `unused` fills what
// would otherwise be padding after the 1-byte `input`, so the names hold no
// uninitialised bytes and are the same on every build.
struct Case {
  int d;
  int n;
  int g;
  InputKind input;
  std::uint8_t unused[3] = {};
};

class SimpleSortTest : public ::testing::TestWithParam<Case> {};

TEST_P(SimpleSortTest, SortsAndStaysWithinBounds) {
  const Case c = GetParam();
  Topology topo(c.d, c.n, Wrap::kMesh);
  BlockGrid grid(topo, c.g);
  Network net(topo);
  FillInput(net, grid, 1, c.input, 17);
  SortOptions opts;
  opts.g = c.g;
  SortResult result = RunSort(SortAlgo::kSimple, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.fixup_rounds, 0);
  // Lemma 3.1: at most one block of displacement => at most 2 merge rounds —
  // but only in the paper's alpha >= 2/3 regime (finite-n form m^2 <= 2B).
  const std::int64_t m = grid.num_blocks();
  const std::int64_t B = grid.block_volume();
  if (m * m <= 2 * B) {
    EXPECT_LE(result.fixup_rounds, 2) << result.Summary(topo.Diameter());
  }
  // Routing should stay well under the 2D baseline even at small n; the
  // asymptotic claim is 1.5 D + o(n).
  EXPECT_LT(result.RatioToDiameter(topo.Diameter()), 2.2)
      << result.Summary(topo.Diameter());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimpleSortTest,
    ::testing::Values(Case{2, 8, 2, InputKind::kRandom},
                      Case{2, 16, 2, InputKind::kRandom},
                      Case{2, 16, 4, InputKind::kRandom},
                      Case{2, 32, 4, InputKind::kRandom},
                      Case{2, 16, 2, InputKind::kSortedAsc},
                      Case{2, 16, 2, InputKind::kSortedDesc},
                      Case{2, 16, 2, InputKind::kAllEqual},
                      Case{2, 16, 2, InputKind::kFewValues},
                      Case{3, 8, 2, InputKind::kRandom},
                      Case{3, 8, 2, InputKind::kSortedDesc},
                      Case{3, 16, 2, InputKind::kRandom},
                      Case{4, 8, 2, InputKind::kRandom}));

class FullSortTest : public ::testing::TestWithParam<Case> {};

TEST_P(FullSortTest, BaselineSortsEverywhere) {
  const Case c = GetParam();
  for (Wrap wrap : {Wrap::kMesh, Wrap::kTorus}) {
    Topology topo(c.d, c.n, wrap);
    BlockGrid grid(topo, c.g);
    Network net(topo);
    FillInput(net, grid, 1, c.input, 19);
    SortOptions opts;
    opts.g = c.g;
    SortResult result = RunSort(SortAlgo::kFull, net, grid, opts);
    EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
    EXPECT_LE(result.fixup_rounds, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, FullSortTest,
                         ::testing::Values(Case{2, 8, 2, InputKind::kRandom},
                                           Case{2, 16, 2, InputKind::kRandom},
                                           Case{2, 16, 2, InputKind::kSortedDesc},
                                           Case{3, 8, 2, InputKind::kRandom},
                                           Case{3, 8, 2, InputKind::kAllEqual}));

TEST(SimpleSortTest, RejectsInvalidConfigurations) {
  Topology topo(2, 6, Wrap::kMesh);
  BlockGrid grid(topo, 2);  // b = 3, m = 4: m does not divide B = 9
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 1);
  SortOptions opts;
  opts.g = 2;
  EXPECT_THROW(SimpleSortRun(net, grid, opts), std::invalid_argument);
}

TEST(SimpleSortTest, RejectsZeroK) {
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  SortOptions opts;
  opts.k = 0;
  EXPECT_THROW(SimpleSortRun(net, grid, opts), std::invalid_argument);
}

TEST(SimpleSortTest, RoutingBeatsTheFullSortBaseline) {
  // The headline comparison of Theorem 3.1: concentration (1.5 D) vs the
  // whole-network unshuffle (2 D). The separation needs blocks genuinely
  // smaller than the network (at g = 2 the O(b) slack swamps it) and d >= 3
  // for Lemma 2.2; d=3, n=32, g=4 shows it cleanly (measured ~1.53 vs ~1.71).
  Topology topo(3, 32, Wrap::kMesh);
  BlockGrid grid(topo, 4);
  SortOptions opts;
  opts.g = 4;

  Network a(topo);
  FillInput(a, grid, 1, InputKind::kRandom, 23);
  SortResult simple = RunSort(SortAlgo::kSimple, a, grid, opts);

  Network b(topo);
  FillInput(b, grid, 1, InputKind::kRandom, 23);
  SortResult full = RunSort(SortAlgo::kFull, b, grid, opts);

  ASSERT_TRUE(simple.sorted);
  ASSERT_TRUE(full.sorted);
  EXPECT_LT(simple.routing_steps, full.routing_steps);
}

TEST(SimpleSortTest, PhasesAreReported) {
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 29);
  SortOptions opts;
  opts.g = 2;
  SortResult result = RunSort(SortAlgo::kSimple, net, grid, opts);
  ASSERT_EQ(result.phases.size(), 5u);
  EXPECT_EQ(result.phases[0].name, "local-sort");
  EXPECT_EQ(result.phases[1].name, "concentrate");
  EXPECT_EQ(result.phases[2].name, "center-sort");
  EXPECT_EQ(result.phases[3].name, "unconcentrate");
  EXPECT_EQ(result.phases[4].name, "fixup-merges");
  // Each routing phase covers at most ~3D/4 of distance.
  EXPECT_LE(result.phases[1].max_distance,
            3 * topo.Diameter() / 4 + 2 * grid.block_side());
  EXPECT_LE(result.phases[3].max_distance,
            3 * topo.Diameter() / 4 + 2 * grid.block_side());
}

TEST(SimpleSortTest, QueuesStayConstantBounded) {
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 31);
  SortOptions opts;
  opts.g = 2;
  SortResult result = RunSort(SortAlgo::kSimple, net, grid, opts);
  ASSERT_TRUE(result.sorted);
  EXPECT_LE(result.max_queue, 16);  // small constant, not Theta(n)
}

TEST(SimpleSortTest, DeterministicGivenSeed) {
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  SortOptions opts;
  opts.g = 2;
  auto run = [&] {
    Network net(topo);
    FillInput(net, grid, 1, InputKind::kRandom, 37);
    return RunSort(SortAlgo::kSimple, net, grid, opts).routing_steps;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimpleSortTest, RandomizedSpreadAblationStillSorts) {
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 41);
  SortOptions opts;
  opts.g = 2;
  opts.randomized_spread = true;
  opts.max_fixup_rounds = 16;  // uneven spread can displace a bit farther
  SortResult result = RunSort(SortAlgo::kSimple, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
}

TEST(SimpleSortTest, ShrunkenCenterStillSorts) {
  // Corollary 3.1.2 machinery: mc = m/4 instead of m/2.
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 4);  // m = 16
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 43);
  SortOptions opts;
  opts.g = 4;
  opts.center_blocks = 4;
  SortResult result = RunSort(SortAlgo::kSimple, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
}

}  // namespace
}  // namespace mdmesh
