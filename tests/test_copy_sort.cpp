#include "sorting/copy_sort.h"

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
  int max_fixups;
};

class CopySortTest : public ::testing::TestWithParam<Case> {};

TEST_P(CopySortTest, SortsCorrectly) {
  const Case c = GetParam();
  Topology topo(c.d, c.n, Wrap::kMesh);
  BlockGrid grid(topo, c.g);
  Network net(topo);
  FillInput(net, grid, 1, c.input, 53);
  SortOptions opts;
  opts.g = c.g;
  opts.max_fixup_rounds = c.max_fixups;
  SortResult result = RunSort(SortAlgo::kCopy, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
  EXPECT_TRUE(result.completed);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CopySortTest,
    ::testing::Values(Case{2, 8, 2, InputKind::kRandom, {}, 8},
                      Case{2, 16, 2, InputKind::kRandom, {}, 8},
                      Case{2, 16, 4, InputKind::kRandom, {}, 8},
                      Case{2, 16, 2, InputKind::kSortedDesc, {}, 8},
                      Case{2, 16, 2, InputKind::kAllEqual, {}, 8},
                      Case{3, 8, 2, InputKind::kRandom, {}, 8},
                      Case{3, 16, 2, InputKind::kRandom, {}, 8},
                      Case{4, 8, 2, InputKind::kRandom, {}, 8},
                      // the d >= 8 regime of Theorem 3.2, tiny n: the
                      // rank-estimate error spans several blocks, so allow
                      // the fix-up loop to run longer (see DESIGN.md §5)
                      Case{6, 4, 2, InputKind::kRandom, {}, 256}));

TEST(CopySortTest, ExactlyOneSurvivorPerPacket) {
  // Multiset preservation after dedup is implied by sorted=true, but check
  // the count explicitly: no packet may be duplicated or lost.
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 59);
  const std::int64_t before = net.TotalPackets();
  SortOptions opts;
  opts.g = 2;
  SortResult result = RunSort(SortAlgo::kCopy, net, grid, opts);
  ASSERT_TRUE(result.sorted);
  EXPECT_EQ(net.TotalPackets(), before);
}

TEST(CopySortTest, SurvivorPhaseTravelsAtMostHalfDiameterPlusSlack) {
  // Lemma 3.3: after the copy phase nothing is farther than D/2 + o(n) from
  // both replicas, so the survivor routing distance is <= D/2 + O(b).
  Topology topo(2, 32, Wrap::kMesh);
  BlockGrid grid(topo, 4);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 61);
  SortOptions opts;
  opts.g = 4;
  SortResult result = RunSort(SortAlgo::kCopy, net, grid, opts);
  ASSERT_TRUE(result.sorted);
  const PhaseStats* survivors = nullptr;
  for (const auto& phase : result.phases) {
    if (phase.name == "route-survivors") survivors = &phase;
  }
  ASSERT_NE(survivors, nullptr);
  EXPECT_LE(survivors->max_distance,
            topo.Diameter() / 2 + 4 * grid.block_side());
}

TEST(CopySortTest, FasterRoutingThanSimpleSortAtScale) {
  // Theorem 3.2 vs 3.1: 5D/4 vs 3D/2. At d=2/n=32 the ordering already
  // shows (the asymptotic claim needs d >= 8; see bench_copysort for the
  // full sweep).
  Topology topo(2, 32, Wrap::kMesh);
  BlockGrid grid(topo, 4);
  SortOptions opts;
  opts.g = 4;

  Network a(topo);
  FillInput(a, grid, 1, InputKind::kRandom, 67);
  SortResult copy = RunSort(SortAlgo::kCopy, a, grid, opts);

  Network b(topo);
  FillInput(b, grid, 1, InputKind::kRandom, 67);
  SortResult simple = RunSort(SortAlgo::kSimple, b, grid, opts);

  ASSERT_TRUE(copy.sorted);
  ASSERT_TRUE(simple.sorted);
  EXPECT_LE(copy.routing_steps, simple.routing_steps + topo.side());
}

TEST(CopySortTest, RequiresEvenG) {
  Topology topo(2, 9, Wrap::kMesh);
  BlockGrid grid(topo, 3);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 71);
  SortOptions opts;
  opts.g = 3;
  EXPECT_THROW(CopySortRun(net, grid, opts), std::invalid_argument);
}

TEST(CopySortTest, DeterministicGivenSeed) {
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  SortOptions opts;
  opts.g = 2;
  auto run = [&] {
    Network net(topo);
    FillInput(net, grid, 1, InputKind::kRandom, 73);
    return RunSort(SortAlgo::kCopy, net, grid, opts).routing_steps;
  };
  EXPECT_EQ(run(), run());
}


TEST(CopySortTest, RandomizedSpreadKeepsMirrorPairingAndSorts) {
  // The randomized variant (Section 2.1 duality): originals go to RANDOM
  // center positions, copies to the mirrored block at the same offset —
  // the pairing that makes the keep/delete rule communication-free must
  // survive randomization.
  Topology topo(2, 16, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 79);
  const std::int64_t before = net.TotalPackets();
  SortOptions opts;
  opts.g = 2;
  opts.randomized_spread = true;
  SortResult result = RunSort(SortAlgo::kCopy, net, grid, opts);
  EXPECT_TRUE(result.sorted) << result.Summary(topo.Diameter());
  EXPECT_EQ(net.TotalPackets(), before);  // exactly one survivor per pair
}

}  // namespace
}  // namespace mdmesh
