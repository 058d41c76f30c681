// Differential testing: the optimized Engine vs the literal ReferenceEngine
// re-implementation of the model semantics. Any divergence in step counts,
// move counts, queue maxima, arrival times, or final placement is a
// semantics bug in one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "net/engine.h"
#include "net/reference_engine.h"
#include "routing/permutations.h"
#include "util/rng.h"

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

// The last two inputs: six packets per processor, so queues spill out of
// PacketQueue's inline storage through every step of a Route; and a
// 68921-processor mesh, where the mailbox arenas carry tens of thousands
// of packets per step.
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
                                           std::tuple{3, 41, Wrap::kMesh, 1}));

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

}  // namespace
}  // namespace mdmesh
