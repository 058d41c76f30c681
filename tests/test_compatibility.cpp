#include "bounds/compatibility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

namespace mdmesh {
namespace {

// The scheme name is a std::string, not a const char*, so gtest
// prints it as text; a pointer would put its load address in the test name.
class CompatibleSchemesTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int, int>> {};

TEST_P(CompatibleSchemesTest, PaperSchemesAreCompatible) {
  auto [name, d, n, b] = GetParam();
  Topology topo(d, n, Wrap::kMesh);
  auto scheme = MakeIndexing(name, d, n, b);
  CompatibilityResult r = CheckCompatibility(topo, *scheme);
  EXPECT_TRUE(r.compatible) << name << " d=" << d << " n=" << n;
  EXPECT_LT(r.beta, 1.0);
  // A window of ~2 n^(d-1) always contains a full hyperplane for row-major
  // and snake; blocked schemes smear a hyperplane over a slab of blocks and
  // need a constant factor more.
  EXPECT_LE(r.min_window, 8 * IPow(n, d - 1)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CompatibleSchemesTest,
    ::testing::Values(std::tuple{"row-major", 2, 8, 0},
                      std::tuple{"row-major", 3, 6, 0},
                      std::tuple{"snake", 2, 8, 0},
                      std::tuple{"snake", 3, 6, 0},
                      std::tuple{"snake", 4, 4, 0},
                      std::tuple{"blocked-snake", 2, 8, 4},
                      std::tuple{"blocked-snake", 3, 8, 4},
                      std::tuple{"blocked-row-major", 2, 8, 4}));

TEST(CompatibilityTest, RowMajorWindowIsTwoHyperplanesMinusOne) {
  // For row-major, hyperplanes x_{d-1} = c occupy index ranges
  // [c n^{d-1}, (c+1) n^{d-1}); the minimal window containing a full one at
  // every offset is 2 n^{d-1} - 1.
  Topology topo(2, 8, Wrap::kMesh);
  RowMajorIndexing scheme(2, 8);
  CompatibilityResult r = CheckCompatibility(topo, scheme);
  EXPECT_EQ(r.min_window, 2 * 8 - 1);
}

TEST(CompatibilityTest, WindowPredicateMonotone) {
  Topology topo(2, 8, Wrap::kMesh);
  SnakeIndexing scheme(2, 8);
  bool prev = false;
  for (std::int64_t w = 1; w <= topo.size(); w *= 2) {
    bool now = WindowsContainHyperplane(topo, scheme, w);
    if (prev) {
      EXPECT_TRUE(now) << "monotonicity broke at w=" << w;
    }
    prev = now;
  }
  EXPECT_TRUE(prev);  // full window trivially works
}

TEST(CompatibilityTest, DiagonalSchemeIsLessCompatible) {
  // An adversarial scheme that interleaves hyperplanes (index = coordinate
  // sum ordering) should need a much larger window than row-major.
  class DiagonalIndexing final : public IndexingScheme {
   public:
    DiagonalIndexing(int d, int n, const Topology& topo) : IndexingScheme(d, n) {
      table_.resize(static_cast<std::size_t>(size_));
      inverse_.resize(static_cast<std::size_t>(size_));
      // Order processors by (coordinate sum, id): consecutive indices hop
      // between hyperplanes of every dimension.
      std::vector<ProcId> order(static_cast<std::size_t>(size_));
      std::iota(order.begin(), order.end(), ProcId{0});
      std::stable_sort(order.begin(), order.end(), [&](ProcId a, ProcId b) {
        Point ca = topo.Coords(a);
        Point cb = topo.Coords(b);
        int sa = 0, sb = 0;
        for (int i = 0; i < d_; ++i) {
          sa += ca[static_cast<std::size_t>(i)];
          sb += cb[static_cast<std::size_t>(i)];
        }
        return sa != sb ? sa < sb : a < b;
      });
      for (std::int64_t idx = 0; idx < size_; ++idx) {
        table_[static_cast<std::size_t>(order[static_cast<std::size_t>(idx)])] = idx;
        inverse_[static_cast<std::size_t>(idx)] = order[static_cast<std::size_t>(idx)];
      }
      topo_ = &topo;
    }
    std::int64_t Index(const Point& p) const override {
      return table_[static_cast<std::size_t>(topo_->Id(p))];
    }
    Point PointAt(std::int64_t index) const override {
      return topo_->Coords(inverse_[static_cast<std::size_t>(index)]);
    }
    std::string Name() const override { return "diagonal"; }

   private:
    const Topology* topo_ = nullptr;
    std::vector<std::int64_t> table_;
    std::vector<ProcId> inverse_;
  };

  Topology topo(2, 8, Wrap::kMesh);
  DiagonalIndexing diag(2, 8, topo);
  RowMajorIndexing rm(2, 8);
  CompatibilityResult r_diag = CheckCompatibility(topo, diag);
  CompatibilityResult r_rm = CheckCompatibility(topo, rm);
  EXPECT_GT(r_diag.min_window, r_rm.min_window);
}

TEST(CompatibilityTest, OneDimensionalIsDegenerate) {
  // In 1D every "hyperplane" is a single processor: windows of size 1 work.
  Topology topo(1, 16, Wrap::kMesh);
  RowMajorIndexing scheme(1, 16);
  CompatibilityResult r = CheckCompatibility(topo, scheme);
  EXPECT_EQ(r.min_window, 1);
}

}  // namespace
}  // namespace mdmesh
