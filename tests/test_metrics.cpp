#include "net/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/engine.h"
#include "routing/permutations.h"
#include "util/rng.h"

namespace mdmesh {
namespace {

TEST(MetricsTest, AccumulateCombinesPhases) {
  RouteResult a, b;
  a.steps = 10;
  a.moves = 100;
  a.max_queue = 3;
  a.packets = 50;
  a.max_distance = 9;
  a.max_overshoot = 1;
  b.steps = 20;
  b.moves = 300;
  b.max_queue = 5;
  b.packets = 50;
  b.max_distance = 12;
  b.max_overshoot = 4;
  b.completed = false;
  a.Accumulate(b);
  EXPECT_EQ(a.steps, 30);
  EXPECT_EQ(a.moves, 400);
  EXPECT_EQ(a.max_queue, 5);
  EXPECT_EQ(a.max_distance, 12);
  EXPECT_EQ(a.max_overshoot, 4);
  EXPECT_FALSE(a.completed);
}

TEST(MetricsTest, ToStringMentionsKeyFields) {
  RouteResult r;
  r.steps = 7;
  r.completed = false;
  std::string s = r.ToString();
  EXPECT_NE(s.find("steps=7"), std::string::npos);
  EXPECT_NE(s.find("INCOMPLETE"), std::string::npos);
}

TEST(MetricsTest, LinkCountsAreExact) {
  // Mesh: 2 * (n-1) * n^(d-1) directed links per dimension.
  Topology mesh(2, 4, Wrap::kMesh);
  Engine engine(mesh);
  Network net(mesh);
  Packet pkt;
  pkt.dest = 1;
  net.Add(0, pkt);
  RouteResult r = engine.Route(net);
  EXPECT_EQ(r.links, 2 * 2 * (4 - 1) * 4);  // 48

  Topology torus(2, 4, Wrap::kTorus);
  Engine tengine(torus);
  Network tnet(torus);
  tnet.Add(0, pkt);
  RouteResult tr = tengine.Route(tnet);
  EXPECT_EQ(tr.links, 2 * 2 * 16);  // 64
}

TEST(MetricsTest, LinkUtilizationBounds) {
  Topology topo(2, 8, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  Rng rng(3);
  auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  RouteResult r = engine.Route(net);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.LinkUtilization(), 0.0);
  EXPECT_LE(r.LinkUtilization(), 1.0);
}

TEST(MetricsTest, UtilizationZeroWhenNothingMoves) {
  RouteResult r;
  EXPECT_EQ(r.LinkUtilization(), 0.0);
}

TEST(MetricsTest, UtilizationGuardsDegenerateCounters) {
  // Any non-positive factor of the capacity must short-circuit to 0 rather
  // than divide by zero or return a negative fraction.
  RouteResult r;
  r.moves = 100;
  r.steps = 0;
  r.links = 48;
  EXPECT_EQ(r.LinkUtilization(), 0.0);
  r.steps = 10;
  r.links = 0;
  EXPECT_EQ(r.LinkUtilization(), 0.0);
  r.links = 48;
  r.moves = -5;
  EXPECT_EQ(r.LinkUtilization(), 0.0);
}

TEST(MetricsTest, UtilizationDoesNotOverflowOrExceedOne) {
  RouteResult r;
  // steps * links would overflow int64 if formed as an integer product.
  r.steps = INT64_C(4) << 40;
  r.links = INT64_C(4) << 40;
  r.moves = 1;
  const double util = r.LinkUtilization();
  EXPECT_GT(util, 0.0);
  EXPECT_LT(util, 1e-20);
  // Inconsistent counters (moves beyond capacity) clamp to 1.
  r.steps = 2;
  r.links = 3;
  r.moves = 1000;
  EXPECT_EQ(r.LinkUtilization(), 1.0);
}

TEST(MetricsTest, ToJsonSerializesEveryField) {
  RouteResult r;
  r.steps = 12;
  r.moves = 240;
  r.max_queue = 4;
  r.packets = 64;
  r.links = 48;
  r.max_distance = 9;
  r.max_overshoot = 3;
  r.completed = false;
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"steps\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"moves\":240"), std::string::npos);
  EXPECT_NE(json.find("\"max_queue\":4"), std::string::npos);
  EXPECT_NE(json.find("\"packets\":64"), std::string::npos);
  EXPECT_NE(json.find("\"links\":48"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"link_utilization\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_distance\":9"), std::string::npos);
  EXPECT_NE(json.find("\"max_overshoot\":3"), std::string::npos);
  EXPECT_NE(json.find("\"overshoot_mean\":0"), std::string::npos);
  EXPECT_NE(json.find("\"peak_active_procs\":"), std::string::npos);
}

TEST(MetricsTest, ToJsonMatchesMeasuredRun) {
  Topology topo(2, 4, Wrap::kMesh);
  Engine engine(topo);
  Network net(topo);
  Packet pkt;
  pkt.dest = 5;
  net.Add(0, pkt);
  RouteResult r = engine.Route(net);
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"steps\":" + std::to_string(r.steps)),
            std::string::npos);
  EXPECT_NE(json.find("\"completed\":true"), std::string::npos);
}

/// Logs every snapshot it is handed; `order`, when set, records which probe
/// ran, to pin the list order.
class StepLog final : public StepProbe {
 public:
  explicit StepLog(int tag = 0, std::vector<int>* order = nullptr)
      : tag_(tag), order_(order) {}
  void OnStep(const StepSnapshot& snap) override {
    steps.push_back(snap.step);
    in_flight.push_back(snap.in_flight);
    arrivals += snap.arrivals;
    if (order_ != nullptr) order_->push_back(tag_);
  }

  std::vector<std::int64_t> steps;
  std::vector<std::int64_t> in_flight;
  std::int64_t arrivals = 0;

 private:
  int tag_;
  std::vector<int>* order_;
};

TEST(MetricsTest, ProbesSeeEveryStep) {
  Topology topo(1, 8, Wrap::kMesh);
  std::vector<int> order;
  StepLog first(1, &order);
  StepLog second(2, &order);
  EngineOptions opts;
  opts.probes = {&first, &second};
  Engine engine(topo, opts);
  Network net(topo);
  Packet pkt;
  pkt.dest = 7;
  net.Add(0, pkt);
  RouteResult r = engine.Route(net);
  for (const StepLog* log : {&first, &second}) {
    ASSERT_EQ(static_cast<std::int64_t>(log->steps.size()), r.steps);
    for (std::size_t i = 0; i < log->steps.size(); ++i) {
      EXPECT_EQ(log->steps[i], static_cast<std::int64_t>(i) + 1);
    }
    EXPECT_EQ(log->arrivals, 1);
    EXPECT_EQ(log->in_flight.back(), 0);
  }
  // Each step reaches the probes in list order.
  ASSERT_EQ(order.size(), 2 * first.steps.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 2 == 0 ? 1 : 2);
  }
}

TEST(MetricsTest, ProbeInFlightIsMonotoneForPermutations) {
  Topology topo(2, 8, Wrap::kMesh);
  StepLog log;
  EngineOptions opts;
  opts.probes = {&log};
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(4);
  auto dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    net.Add(p, pkt);
  }
  engine.Route(net);
  std::int64_t prev = topo.size() + 1;
  bool monotone = true;
  for (const std::int64_t in_flight : log.in_flight) {
    if (in_flight > prev) monotone = false;
    prev = in_flight;
  }
  EXPECT_TRUE(monotone);  // arrivals only remove packets from flight
}

}  // namespace
}  // namespace mdmesh
