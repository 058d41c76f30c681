#include "sorting/remap.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "sorting/verify.h"

namespace mdmesh {
namespace {

// The scheme name is a std::string, not a const char*, so gtest
// prints it as text; a pointer would put its load address in the test name.
class RemapTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int, int>> {};

TEST_P(RemapTest, SortIntoSchemeEndsSortedUnderIt) {
  auto [name, d, n, k] = GetParam();
  Topology topo(d, n, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  auto scheme = MakeIndexing(name, d, n, n / 2);
  Network net(topo);
  FillInput(net, grid, k, InputKind::kRandom, 307);
  GroundTruth truth = CaptureGroundTruth(net);
  SortOptions opts;
  opts.g = 2;
  opts.k = k;
  SortResult result = SortIntoScheme(SortAlgo::kSimple, net, grid, *scheme, opts);
  EXPECT_TRUE(result.sorted) << name;
  EXPECT_TRUE(IsSortedUnderScheme(net, topo, *scheme, k)) << name;
  EXPECT_EQ(CaptureGroundTruth(net), truth) << name;
  // The remap phase exists and is a single routing pass <= D + slack.
  ASSERT_FALSE(result.phases.empty());
  EXPECT_EQ(result.phases.back().name, "remap");
  EXPECT_LE(result.phases.back().max_distance, topo.Diameter());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RemapTest,
    ::testing::Values(std::tuple{"row-major", 2, 8, 1},
                      std::tuple{"row-major", 2, 16, 1},
                      std::tuple{"row-major", 3, 8, 1},
                      std::tuple{"snake", 2, 8, 1},
                      std::tuple{"morton", 2, 16, 1},
                      std::tuple{"hilbert", 2, 16, 1},
                      std::tuple{"row-major", 2, 8, 2},
                      std::tuple{"blocked-row-major", 2, 8, 1}));

TEST(RemapTest, IdentityRemapIsFree) {
  // Remapping into the SAME blocked snake the sort produced costs 0 steps.
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 311);
  SortOptions opts;
  opts.g = 2;
  SortResult sorted = RunSort(SortAlgo::kSimple, net, grid, opts);
  ASSERT_TRUE(sorted.sorted);
  RouteResult remap = RemapToScheme(net, grid, grid.indexing(), 1);
  EXPECT_EQ(remap.steps, 0);
  EXPECT_TRUE(remap.completed);
}

TEST(RemapTest, IsSortedUnderSchemeDetectsWrongScheme) {
  // Output sorted under blocked-snake is generally NOT sorted under
  // row-major (that is the whole point of the remap).
  Topology topo(2, 8, Wrap::kMesh);
  BlockGrid grid(topo, 2);
  Network net(topo);
  FillInput(net, grid, 1, InputKind::kRandom, 313);
  SortOptions opts;
  opts.g = 2;
  SortResult sorted = RunSort(SortAlgo::kSimple, net, grid, opts);
  ASSERT_TRUE(sorted.sorted);
  RowMajorIndexing rm(2, 8);
  EXPECT_FALSE(IsSortedUnderScheme(net, topo, rm, 1));
  EXPECT_TRUE(IsSortedUnderScheme(net, topo, grid.indexing(), 1));
}

TEST(RemapTest, HilbertIsHamiltonianAndBijective) {
  HilbertIndexing idx(2, 8);
  Topology topo(2, 8, Wrap::kMesh);
  std::vector<bool> seen(static_cast<std::size_t>(topo.size()), false);
  Point prev{};
  for (std::int64_t t = 0; t < topo.size(); ++t) {
    Point p = idx.PointAt(t);
    const std::int64_t back = idx.Index(p);
    EXPECT_EQ(back, t);
    const ProcId id = topo.Id(p);
    EXPECT_FALSE(seen[static_cast<std::size_t>(id)]);
    seen[static_cast<std::size_t>(id)] = true;
    if (t > 0) {
      EXPECT_EQ(topo.DistCoords(prev, p), 1)
          << "hilbert breaks between " << t - 1 << " and " << t;
    }
    prev = p;
  }
}

TEST(RemapTest, HilbertSubsquaresContiguous) {
  HilbertIndexing idx(2, 8);
  for (int qx = 0; qx < 2; ++qx) {
    for (int qy = 0; qy < 2; ++qy) {
      std::int64_t lo = 64;
      std::int64_t hi = -1;
      for (int x = 0; x < 4; ++x) {
        for (int y = 0; y < 4; ++y) {
          Point p{};
          p[0] = qx * 4 + x;
          p[1] = qy * 4 + y;
          const std::int64_t t = idx.Index(p);
          lo = std::min(lo, t);
          hi = std::max(hi, t);
        }
      }
      EXPECT_EQ(hi - lo + 1, 16);
    }
  }
}

TEST(RemapTest, HilbertRequires2DPowerOfTwo) {
  EXPECT_THROW(HilbertIndexing(3, 8), std::invalid_argument);
  EXPECT_THROW(HilbertIndexing(2, 6), std::invalid_argument);
  EXPECT_THROW(MakeIndexing("hilbert", 2, 12, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mdmesh
