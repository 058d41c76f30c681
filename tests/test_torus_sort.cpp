#include "sorting/torus_sort.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "sorting/kk_sort.h"

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

class TorusSortTest : public ::testing::TestWithParam<Case> {};

TEST_P(TorusSortTest, SortsCorrectly) {
  const Case c = GetParam();
  Topology topo(c.d, c.n, Wrap::kTorus);
  BlockGrid grid(topo, c.g);
  Network net(topo);
  FillInput(net, grid, 1, c.input, 81);
  SortOptions opts;
  opts.g = c.g;
  SortResult result = RunSort(SortAlgo::kTorus, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
  EXPECT_TRUE(result.completed);
  if (grid.num_blocks() * grid.num_blocks() <= 2 * grid.block_volume()) {
    EXPECT_LE(result.fixup_rounds, 2) << result.Summary(topo.Diameter());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TorusSortTest,
    ::testing::Values(Case{2, 8, 2, InputKind::kRandom},
                      Case{2, 16, 2, InputKind::kRandom},
                      Case{2, 16, 4, InputKind::kRandom},
                      Case{2, 16, 2, InputKind::kSortedAsc},
                      Case{2, 16, 2, InputKind::kSortedDesc},
                      Case{2, 16, 2, InputKind::kAllEqual},
                      Case{2, 16, 2, InputKind::kFewValues},
                      Case{3, 8, 2, InputKind::kRandom},
                      Case{3, 16, 2, InputKind::kRandom},
                      Case{4, 8, 2, InputKind::kRandom}));

TEST(TorusSortTest, RequiresTorus) {
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 83);
  SortOptions opts;
  opts.g = 2;
  EXPECT_THROW(TorusSortRun(net, grid, opts), std::invalid_argument);
}

TEST(TorusSortTest, SurvivorPhaseWithinHalfDiameterPlusSlack) {
  // Lemma 3.4 is exact for the antipodal copy: survivors travel <= D/2 + O(b).
  Topology topo(2, 32, Wrap::kTorus);
  BlockGrid grid(topo, 4);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 87);
  SortOptions opts;
  opts.g = 4;
  SortResult result = RunSort(SortAlgo::kTorus, net, grid, opts);
  ASSERT_TRUE(result.sorted);
  const PhaseStats* survivors = nullptr;
  for (const auto& phase : result.phases) {
    if (phase.name == "route-survivors") survivors = &phase;
  }
  ASSERT_NE(survivors, nullptr);
  EXPECT_LE(survivors->max_distance,
            topo.Diameter() / 2 + 4 * grid.block_side());
}

TEST(TorusSortTest, PacketCountPreservedThroughDedup) {
  Topology topo(2, 16, Wrap::kTorus);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 89);
  const std::int64_t before = net.TotalPackets();
  SortOptions opts;
  opts.g = 2;
  SortResult result = RunSort(SortAlgo::kTorus, net, grid, opts);
  ASSERT_TRUE(result.sorted);
  EXPECT_EQ(net.TotalPackets(), before);
}

TEST(TorusSortTest, BeatsFullSortBaselineOnTorus) {
  // Theorem 3.3: 3D/2 vs the 2D baseline.
  Topology topo(2, 32, Wrap::kTorus);
  BlockGrid grid(topo, 4);
  SortOptions opts;
  opts.g = 4;

  Network a(topo);
  FillInput(a, grid, 1, InputKind::kRandom, 91);
  SortResult torus = RunSort(SortAlgo::kTorus, a, grid, opts);

  Network b(topo);
  FillInput(b, grid, 1, InputKind::kRandom, 91);
  SortResult full = RunSort(SortAlgo::kFull, b, grid, opts);

  ASSERT_TRUE(torus.sorted);
  ASSERT_TRUE(full.sorted);
  EXPECT_LT(torus.routing_steps, full.routing_steps);
}

TEST(TorusSortTest, DeterministicGivenSeed) {
  Topology topo(2, 8, Wrap::kTorus);
  BlockGrid grid(topo, 2);
  SortOptions opts;
  opts.g = 2;
  auto run = [&] {
    Network net(topo);
    FillInput(net, grid, 1, InputKind::kRandom, 93);
    return RunSort(SortAlgo::kTorus, net, grid, opts).routing_steps;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mdmesh
