#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "net/engine.h"
#include "obs/probe.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mdmesh {
namespace {

Packet MakePacket(std::int64_t id, ProcId dest) {
  Packet pkt;
  pkt.id = id;
  pkt.key = static_cast<std::uint64_t>(id);
  pkt.dest = dest;
  return pkt;
}

TEST(NetworkTest, AddAndCount) {
  Topology topo(2, 4, Wrap::kMesh);
  Network net(topo);
  EXPECT_EQ(net.TotalPackets(), 0);
  net.Add(0, MakePacket(1, 5));
  net.Add(0, MakePacket(2, 6));
  net.Add(3, MakePacket(3, 7));
  EXPECT_EQ(net.TotalPackets(), 3);
  EXPECT_EQ(net.MaxQueue(), 2);
  EXPECT_EQ(net.At(0).size(), 2u);
  EXPECT_EQ(net.At(3).size(), 1u);
  EXPECT_TRUE(net.At(1).empty());
}

TEST(NetworkTest, ForEachVisitsEverythingOnce) {
  Topology topo(2, 4, Wrap::kMesh);
  Network net(topo);
  for (ProcId p = 0; p < topo.size(); ++p) net.Add(p, MakePacket(p, p));
  std::int64_t visits = 0;
  std::int64_t id_sum = 0;
  net.ForEach([&](ProcId p, Packet& pkt) {
    ++visits;
    id_sum += pkt.id;
    EXPECT_EQ(pkt.id, p);
  });
  EXPECT_EQ(visits, topo.size());
  EXPECT_EQ(id_sum, topo.size() * (topo.size() - 1) / 2);
}

TEST(NetworkTest, ForEachMutates) {
  Topology topo(1, 4, Wrap::kMesh);
  Network net(topo);
  net.Add(0, MakePacket(0, 0));
  net.ForEach([](ProcId, Packet& pkt) { pkt.dest = 3; });
  EXPECT_EQ(net.At(0)[0].dest, 3);
}

TEST(NetworkTest, GatherScatterRoundTrip) {
  Topology topo(2, 3, Wrap::kMesh);
  Network net(topo);
  net.Add(1, MakePacket(10, 2));
  net.Add(7, MakePacket(11, 0));
  auto all = net.Gather();
  EXPECT_EQ(all.size(), 2u);
  std::vector<std::pair<ProcId, Packet>> placed;
  for (const Packet& pkt : all) placed.emplace_back(pkt.dest, pkt);
  net.Scatter(placed);
  EXPECT_EQ(net.TotalPackets(), 2);
  EXPECT_EQ(net.At(2).size(), 1u);
  EXPECT_EQ(net.At(0).size(), 1u);
  EXPECT_TRUE(net.At(1).empty());
}

TEST(NetworkTest, ClearEmptiesEverything) {
  Topology topo(1, 4, Wrap::kMesh);
  Network net(topo);
  net.Add(0, MakePacket(0, 0));
  net.Add(1, MakePacket(1, 1));
  net.Clear();
  EXPECT_EQ(net.TotalPackets(), 0);
  EXPECT_EQ(net.MaxQueue(), 0);
}

TEST(NetworkTest, AtOnEmptyProcessorConstAndMutable) {
  Topology topo(2, 4, Wrap::kMesh);
  Network net(topo);
  const Network& view = net;
  EXPECT_TRUE(view.At(5).empty());
  EXPECT_EQ(net.blocks_live(), 0);  // reading allocates nothing
  PacketQueue& q = net.At(5);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(net.blocks_live(), 1);  // the mutable overload does
  q.push_back(MakePacket(1, 0));
  EXPECT_EQ(view.At(5).size(), 1u);
  EXPECT_EQ(&view.At(5), &q);
  EXPECT_EQ(net.TotalPackets(), 1);
}

TEST(NetworkTest, ReferencesSurviveOtherAllocations) {
  Topology topo(2, 16, Wrap::kMesh);
  Network net(topo);
  PacketQueue& first = net.At(3);
  first.push_back(MakePacket(7, 1));
  // Far more blocks than one chunk: the pool grows, nothing moves.
  for (ProcId p = 4; p < topo.size(); ++p) net.Add(p, MakePacket(p, 0));
  PacketQueue& lo = net.At(0);
  PacketQueue& hi = net.At(1);  // two fresh references held at once
  lo.push_back(MakePacket(100, 2));
  hi.push_back(MakePacket(101, 2));
  EXPECT_EQ(&first, &net.At(3));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 7);
  EXPECT_EQ(net.At(0)[0].id, 100);
  EXPECT_EQ(net.At(1)[0].id, 101);
  EXPECT_EQ(net.blocks_live(), topo.size() - 1);  // processor 2 is empty
}

TEST(NetworkTest, ClearEraseIfAndScatterReleaseBlocks) {
  Topology topo(2, 8, Wrap::kMesh);
  Network net(topo);
  for (ProcId p = 0; p < topo.size(); ++p) {
    net.Add(p, MakePacket(p, p));
    if (p % 4 == 0) net.Add(p, MakePacket(1000 + p, p));
  }
  EXPECT_EQ(net.blocks_live(), topo.size());
  const std::int64_t allocated = net.blocks_allocated();
  // Drop every packet of odd processors and the second packet of the
  // others: odd processors give their blocks back, queue order survives.
  EXPECT_EQ(net.EraseIf([](ProcId p, const Packet& pkt) {
              return p % 2 == 1 || pkt.id >= 1000;
            }),
            topo.size() / 2 + topo.size() / 4);
  EXPECT_EQ(net.blocks_live(), topo.size() / 2);
  EXPECT_EQ(net.At(4).size(), 1u);
  EXPECT_EQ(net.At(4)[0].id, 4);
  net.Clear();
  EXPECT_EQ(net.blocks_live(), 0);
  EXPECT_EQ(net.blocks_allocated(), allocated);  // kept for reuse
  net.Scatter({{2, MakePacket(1, 2)}, {9, MakePacket(2, 9)}});
  EXPECT_EQ(net.blocks_live(), 2);
  net.Scatter({{5, MakePacket(3, 5)}});
  EXPECT_EQ(net.blocks_live(), 1);
  EXPECT_EQ(net.blocks_allocated(), allocated);
}

TEST(NetworkTest, CopyIsDeepAndKeepsOrder) {
  Topology topo(2, 6, Wrap::kMesh);
  Network net(topo);
  net.Add(7, MakePacket(1, 0));
  net.Add(7, MakePacket(2, 0));
  net.Add(3, MakePacket(3, 0));
  for (int i = 0; i < 7; ++i) net.Add(20, MakePacket(10 + i, 0));  // spills
  net.At(11);  // an allocated but empty block is not copied as a queue
  Network copy = net;
  EXPECT_EQ(copy.Gather().size(), net.Gather().size());
  const auto ids = [](const Network& n) {
    std::vector<std::int64_t> out;
    n.ForEach([&](ProcId, const Packet& pkt) { out.push_back(pkt.id); });
    return out;
  };
  EXPECT_EQ(ids(copy), ids(net));
  EXPECT_EQ(copy.blocks_live(), 3);
  EXPECT_EQ(copy.MaxQueue(), 7);
  // Mutating one side leaves the other alone.
  copy.At(7)[0].id = 99;
  copy.At(20).pop_back();
  EXPECT_EQ(net.At(7)[0].id, 1);
  EXPECT_EQ(net.At(20).size(), 7u);
  Network assigned(topo);
  assigned.Add(0, MakePacket(50, 0));
  assigned = net;
  EXPECT_EQ(ids(assigned), ids(net));
  EXPECT_TRUE(std::as_const(assigned).At(0).empty());
}

/// Records the run's peak of (occupied processors + moves) per step.
class OccupancyProbe : public StepProbe {
 public:
  bool WantsQueueHistogram() const override { return true; }
  void OnStep(const StepSnapshot& snap) override {
    const std::int64_t occupied =
        snap.queue_hist->total() - snap.queue_hist->Count(0);
    peak = std::max(peak, occupied + snap.moves);
  }
  std::int64_t peak = 0;
};

TEST(NetworkTest, RouteStorageFollowsOccupiedProcessors) {
  // N/64 random packets on a 3D n=32 mesh: the pool must stay near the
  // occupied processors plus one step's movers, far below N, in every
  // traversal and at any worker count, and a Route ends with exactly one
  // live block per occupied processor.
  Topology topo(3, 32, Wrap::kMesh);
  const std::int64_t N = topo.size();
  for (SparseMode mode :
       {SparseMode::kAuto, SparseMode::kAlways, SparseMode::kNever}) {
    for (unsigned workers : {0u, 4u}) {
      SCOPED_TRACE(std::string(SparseModeName(mode)) + " workers=" +
                   std::to_string(workers));
      Network net(topo);
      Rng rng(64);
      for (std::int64_t i = 0; i < N / 64; ++i) {
        const auto src = static_cast<ProcId>(rng.Below(static_cast<std::uint64_t>(N)));
        net.Add(src, MakePacket(i, static_cast<ProcId>(rng.Below(
                                       static_cast<std::uint64_t>(N)))));
      }
      OccupancyProbe probe;
      probe.peak = net.blocks_live();
      ThreadPool pool(workers);
      EngineOptions opts;
      opts.pool = &pool;
      opts.sparse = mode;
      opts.probes = {&probe};
      Engine engine(topo, opts);
      const RouteResult r = engine.Route(net);
      ASSERT_TRUE(r.completed);
      EXPECT_LE(net.blocks_allocated(), 2 * probe.peak);
      EXPECT_LT(net.blocks_allocated(), N / 8);
      std::int64_t occupied = 0;
      for (ProcId p = 0; p < N; ++p) {
        if (!std::as_const(net).At(p).empty()) ++occupied;
      }
      EXPECT_EQ(net.blocks_live(), occupied);
    }
  }
}

}  // namespace
}  // namespace mdmesh
