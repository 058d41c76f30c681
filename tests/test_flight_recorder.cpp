#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "fault/fault_plan.h"
#include "net/engine.h"
#include "net/network.h"
#include "obs/probe.h"
#include "util/rng.h"

namespace mdmesh {
namespace {

Packet MakePacket(std::int64_t id, ProcId dest, std::uint16_t klass = 0) {
  Packet pkt;
  pkt.id = id;
  pkt.key = static_cast<std::uint64_t>(id);
  pkt.dest = dest;
  pkt.klass = klass;
  return pkt;
}

StepSnapshot MakeSnapshot(std::int64_t step) {
  StepSnapshot snap;
  snap.step = step;
  snap.in_flight = 100 - step;
  snap.moves = step * 2;
  return snap;
}

std::string TempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::ostringstream os;
  os << (dir != nullptr ? dir : "/tmp") << "/" << stem << "_" << ::getpid()
     << ".json";
  return os.str();
}

// ---------------------------------------------------------------------------
// Ring semantics.

TEST(FlightRecorderTest, RetainsEverythingBelowCapacity) {
  FlightRecorder rec(8);
  for (std::int64_t s = 1; s <= 5; ++s) rec.Append(MakeSnapshot(s));
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_records(), 5);
  EXPECT_EQ(rec.dropped(), 0);
  EXPECT_EQ(rec.Last().step, 5);
  const auto tail = rec.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].step, 3);
  EXPECT_EQ(tail[2].step, 5);
}

TEST(FlightRecorderTest, WrapsAndCountsDropped) {
  FlightRecorder rec(4);
  for (std::int64_t s = 1; s <= 10; ++s) rec.Append(MakeSnapshot(s));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_records(), 10);
  EXPECT_EQ(rec.dropped(), 6);
  EXPECT_EQ(rec.Last().step, 10);
  // The retained window is the most recent 4 records, oldest first.
  const auto tail = rec.Tail(99);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].step, 7);
  EXPECT_EQ(tail[1].step, 8);
  EXPECT_EQ(tail[2].step, 9);
  EXPECT_EQ(tail[3].step, 10);
}

TEST(FlightRecorderTest, ClearResetsButKeepsCapacity) {
  FlightRecorder rec(4);
  for (std::int64_t s = 1; s <= 6; ++s) rec.Append(MakeSnapshot(s));
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_records(), 0);
  EXPECT_EQ(rec.capacity(), 4u);
  rec.Append(MakeSnapshot(42));
  EXPECT_EQ(rec.Last().step, 42);
}

TEST(FlightRecorderTest, JsonCarriesManifestReasonAndRecords) {
  FlightRecorder rec(16);
  RunManifest m;
  m.seed = 1234;
  rec.set_manifest(m);
  for (std::int64_t s = 1; s <= 3; ++s) rec.Append(MakeSnapshot(s));
  const std::string json = rec.ToJson("watchdog");
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"watchdog\""), std::string::npos);
  EXPECT_NE(json.find("\"step\":3"), std::string::npos);
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(FlightRecorderTest, DumpWritesAtomicallyAndReportsFailure) {
  FlightRecorder rec(4);
  rec.Append(MakeSnapshot(1));
  // No path set: refused, not crashed.
  EXPECT_FALSE(rec.Dump("step_cap"));
  const std::string path = TempPath("flight_dump");
  rec.set_dump_path(path);
  EXPECT_TRUE(rec.Dump("step_cap"));
  // The temp staging file must be gone (renamed into place).
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"reason\": \"step_cap\""), std::string::npos);
  std::remove(path.c_str());
  // Unwritable directory: refused, not crashed.
  rec.set_dump_path("/nonexistent_dir_mdmesh/x.json");
  EXPECT_FALSE(rec.Dump("step_cap"));
}

// ---------------------------------------------------------------------------
// Engine integration: abort paths dump the black box and StallReport embeds
// the tail.

TEST(FlightRecorderEngineTest, WatchdogStallDumpMatchesStallReportStep) {
  // Deadlocked node (every outgoing link dead) — the watchdog aborts, the
  // artifact lands on disk, and its last record is the abort step.
  Topology topo(1, 4, Wrap::kMesh);
  FaultPlan plan(topo);
  plan.KillLink(1, 0, 0);
  plan.KillLink(1, 0, 1);
  FlightRecorder recorder(128);
  const std::string path = TempPath("flight_watchdog");
  recorder.set_dump_path(path);
  EngineOptions opts;
  opts.faults = &plan;
  opts.step_cap = 1000000;
  opts.stall_window = 10;
  opts.invariants = InvariantMode::kOff;
  opts.recorder = &recorder;
  Engine engine(topo, opts);
  Network net(topo);
  net.Add(1, MakePacket(77, 3));
  RouteResult r = engine.Route(net);
  EXPECT_FALSE(r.completed);
  ASSERT_NE(r.stall_report, nullptr);
  EXPECT_EQ(r.stall_report->reason, StallReason::kWatchdog);

  // Acceptance pin: the artifact's last record matches the StallReport step.
  EXPECT_EQ(recorder.Last().step, r.stall_report->step);
  EXPECT_EQ(recorder.Last().in_flight, 1);
  EXPECT_EQ(recorder.Last().moves, 0);

  // The report itself embeds the tail (oldest first, ending at the abort).
  ASSERT_FALSE(r.stall_report->recent.empty());
  EXPECT_EQ(r.stall_report->recent.back().step, r.stall_report->step);
  EXPECT_LE(r.stall_report->recent.size(), StallReport::kRecentCap);
  // And the report's JSON carries it.
  std::ostringstream os;
  JsonWriter w(os);
  r.stall_report->WriteJson(w);
  EXPECT_NE(os.str().find("\"recent\""), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"reason\": \"watchdog\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderEngineTest, StepCapAbortAlsoDumps) {
  Topology topo(1, 4, Wrap::kMesh);
  FaultPlan plan(topo);
  plan.KillLink(1, 0, 0);
  plan.KillLink(1, 0, 1);
  FlightRecorder recorder(8);  // smaller than the 30-step run: must wrap
  const std::string path = TempPath("flight_stepcap");
  recorder.set_dump_path(path);
  EngineOptions opts;
  opts.faults = &plan;
  opts.step_cap = 30;
  opts.stall_window = -1;
  opts.invariants = InvariantMode::kOff;
  opts.recorder = &recorder;
  Engine engine(topo, opts);
  Network net(topo);
  net.Add(1, MakePacket(0, 3));
  RouteResult r = engine.Route(net);
  EXPECT_FALSE(r.completed);
  ASSERT_NE(r.stall_report, nullptr);
  EXPECT_EQ(r.stall_report->reason, StallReason::kStepCap);
  EXPECT_EQ(recorder.Last().step, 30);
  EXPECT_EQ(recorder.dropped(), 30 - 8);
  // The embedded tail is capacity-bounded, not kRecentCap-bounded, when the
  // ring is smaller.
  EXPECT_EQ(r.stall_report->recent.size(), 8u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(FlightRecorderEngineTest, InterruptAbortsWithReasonAndClearsFlag) {
  // Drive the flag directly (tests must not raise real signals); the engine
  // polls it per step, aborts with kInterrupt, and consumes the flag.
  Topology topo(2, 8, Wrap::kMesh);
  FlightRecorder recorder(64);
  EngineOptions opts;
  opts.recorder = &recorder;
  opts.invariants = InvariantMode::kOff;
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(7);
  const auto perm = rng.Permutation(topo.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    net.Add(p, MakePacket(p, static_cast<ProcId>(perm[static_cast<std::size_t>(p)])));
  }
  FlightRecorder::RequestInterrupt();
  RouteResult r = engine.Route(net);
  EXPECT_FALSE(r.completed);
  ASSERT_NE(r.stall_report, nullptr);
  EXPECT_EQ(r.stall_report->reason, StallReason::kInterrupt);
  EXPECT_EQ(r.steps, 1);  // polled at the first step boundary
  EXPECT_FALSE(FlightRecorder::InterruptRequested());  // consumed

  // With the flag consumed, a rerun completes normally.
  Network net2(topo);
  for (ProcId p = 0; p < topo.size(); ++p) {
    net2.Add(p, MakePacket(p, static_cast<ProcId>(perm[static_cast<std::size_t>(p)])));
  }
  RouteResult r2 = engine.Route(net2);
  EXPECT_TRUE(r2.completed);
}

TEST(FlightRecorderEngineTest, ProbesSeeTheStepAnInterruptEndsOn) {
  // The engine hands each step's snapshot to the recorder and every probe
  // before it polls the interrupt flag, so a probe's series ends where the
  // StallReport does, like the recorder's ring.
  Topology topo(2, 8, Wrap::kMesh);
  FlightRecorder recorder(64);
  CongestionTrace trace;
  EngineOptions opts;
  opts.recorder = &recorder;
  opts.probes = {&trace};
  opts.invariants = InvariantMode::kOff;
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(7);
  const auto perm = rng.Permutation(topo.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    net.Add(p, MakePacket(p, static_cast<ProcId>(perm[static_cast<std::size_t>(p)])));
  }
  FlightRecorder::RequestInterrupt();
  RouteResult r = engine.Route(net);
  ASSERT_NE(r.stall_report, nullptr);
  EXPECT_EQ(r.stall_report->reason, StallReason::kInterrupt);
  ASSERT_FALSE(trace.samples().empty());
  EXPECT_EQ(trace.samples().back().run_step, r.stall_report->step);
  EXPECT_EQ(trace.total_steps(), recorder.total_records());
  EXPECT_EQ(trace.samples().back().in_flight, recorder.Last().in_flight);
}

TEST(FlightRecorderEngineTest, RecordsCarryPerDimMovesAndCongestion) {
  // A clean 2D permutation run: every step lands in the ring with per-dim
  // move counters summing to the step's total moves.
  Topology topo(2, 6, Wrap::kMesh);
  FlightRecorder recorder(4096);
  EngineOptions opts;
  opts.recorder = &recorder;
  opts.invariants = InvariantMode::kOff;
  Engine engine(topo, opts);
  Network net(topo);
  Rng rng(11);
  const auto perm = rng.Permutation(topo.size());
  for (ProcId p = 0; p < topo.size(); ++p) {
    net.Add(p, MakePacket(p, static_cast<ProcId>(perm[static_cast<std::size_t>(p)])));
  }
  RouteResult r = engine.Route(net);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(recorder.total_records(), r.steps);
  std::int64_t moves = 0;
  std::int64_t arrivals = 0;
  for (const FlightRecord& rec : recorder.Tail(recorder.size())) {
    EXPECT_EQ(rec.dims, 2);
    std::int64_t dir_sum = 0;
    for (int i = 0; i < 2 * rec.dims; ++i) dir_sum += rec.dir_moves[i];
    EXPECT_EQ(dir_sum, rec.moves);
    moves += rec.moves;
    arrivals += rec.arrivals;
  }
  EXPECT_EQ(moves, r.moves);
  // Packets born on their destination (fixed points of the permutation)
  // retire before the first step, so they never appear in the per-step
  // arrival counters.
  std::int64_t fixed = 0;
  for (ProcId p = 0; p < topo.size(); ++p) {
    if (perm[static_cast<std::size_t>(p)] == p) ++fixed;
  }
  EXPECT_EQ(arrivals + fixed, r.packets);
  // Completed runs leave no stall report and dump nothing.
  EXPECT_EQ(r.stall_report, nullptr);
  EXPECT_EQ(recorder.Last().in_flight, 0);
}

TEST(FlightRecorderEngineTest, RecorderDoesNotChangeRouting) {
  // Same permutation with and without a recorder: identical step counts,
  // moves, and final placement fingerprints.
  Topology topo(2, 8, Wrap::kTorus);
  Rng rng(3);
  const auto perm = rng.Permutation(topo.size());
  const auto run = [&](FlightRecorder* rec) {
    EngineOptions opts;
    opts.recorder = rec;
    opts.invariants = InvariantMode::kOff;
    Engine engine(topo, opts);
    Network net(topo);
    for (ProcId p = 0; p < topo.size(); ++p) {
      net.Add(p, MakePacket(p, static_cast<ProcId>(perm[static_cast<std::size_t>(p)])));
    }
    RouteResult r = engine.Route(net);
    std::ostringstream fp;
    for (ProcId p = 0; p < topo.size(); ++p) {
      for (const Packet& pkt : net.At(p)) {
        fp << p << ':' << pkt.id << ':' << pkt.arrived << ';';
      }
    }
    return std::make_tuple(r.steps, r.moves, r.max_queue, fp.str());
  };
  FlightRecorder recorder(256);
  EXPECT_EQ(run(nullptr), run(&recorder));
}

}  // namespace
}  // namespace mdmesh
