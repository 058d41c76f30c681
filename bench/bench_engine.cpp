// E19/E21 (DESIGN.md §3): substrate performance — raw throughput of the
// synchronous simulation kernel (packet-moves per second), the sparse
// active-set path vs the dense sweep on drain-heavy workloads, serial vs
// the thread pool, plus the scaling of a full sorting run with network
// size. This is the only bench about wall-clock speed rather than step
// counts. The JSON records (BENCH_engine.json) feed the CI perf-smoke
// guard (scripts/check_perf_regression.py).
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

/// Process-wide peak resident set in MiB (getrusage ru_maxrss; KiB on
/// Linux). Monotone over the process lifetime, so a record's value is the
/// peak *up to* that run — meaningful as a guard ceiling, not as a
/// per-workload delta. 0 where the platform has no getrusage.
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

/// One timed run for the E21/E26 wall-clock records. `mode` names the
/// traversal policy under test ("dense" or "sparse"); everything else
/// about the run is fixed by the workload.
struct WallRecord {
  std::string workload;  ///< "drain_two_phase", "loaded_route", "mega_partial"
  MeshSpec spec;
  std::string mode;
  std::int64_t steps = 0;
  std::int64_t sparse_steps = 0;
  std::int64_t moves = 0;
  double wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  /// RSS ceiling for this record (MiB); 0 = unguarded. The perf-regression
  /// guard fails the run when peak_rss_mb exceeds it (the mega fixtures pin
  /// "footprint proportional to in-flight packets, not N" this way).
  double rss_guard_mb = 0.0;
};

void EmitWallRecord(BenchJson& json, const WallRecord& rec) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").String("engine_wall");
  w.Key("workload").String(rec.workload);
  w.Key("spec").BeginObject();
  w.Key("d").Int(rec.spec.d);
  w.Key("n").Int(rec.spec.n);
  w.Key("wrap").String(rec.spec.wrap == Wrap::kTorus ? "torus" : "mesh");
  w.EndObject();
  w.Key("mode").String(rec.mode);
  w.Key("steps").Int(rec.steps);
  w.Key("sparse_steps").Int(rec.sparse_steps);
  w.Key("moves").Int(rec.moves);
  w.Key("wall_ms").Double(rec.wall_ms);
  w.Key("packet_steps_per_sec")
      .Double(rec.wall_ms > 0.0
                  ? static_cast<double>(rec.moves) * 1000.0 / rec.wall_ms
                  : 0.0);
  w.Key("peak_rss_mb").Double(rec.peak_rss_mb);
  if (rec.rss_guard_mb > 0.0) w.Key("rss_guard_mb").Double(rec.rss_guard_mb);
  w.EndObject();
  json.AddRaw(os.str());
}

/// Engine configuration for one wall-record mode.
EngineOptions EngineOptionsFor(const std::string& mode) {
  EngineOptions eopts;
  eopts.sparse = mode == "dense" ? SparseMode::kNever : SparseMode::kAuto;
  return eopts;
}

/// Two-phase reversal routing — the drain-heavy workload the sparse path
/// targets: each phase spends most of its steps below half occupancy.
WallRecord RunDrainTwoPhase(const MeshSpec& spec, const std::string& mode,
                            int reps) {
  Topology topo = spec.Build();
  const std::vector<ProcId> dest = ReversalPermutation(topo);
  TwoPhaseOptions opts;
  opts.g = spec.d == 2 ? 8 : 4;
  opts.seed = 99;
  opts.engine = EngineOptionsFor(mode);
  WallRecord rec;
  rec.workload = "drain_two_phase";
  rec.spec = spec;
  rec.mode = mode;
  rec.wall_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    TwoPhaseResult r = RouteTwoPhase(topo, dest, opts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < rec.wall_ms) rec.wall_ms = ms;
    rec.steps = r.total_steps;
    rec.sparse_steps = r.phase1.sparse_steps + r.phase2.sparse_steps;
    rec.moves = r.phase1.moves + r.phase2.moves;
  }
  rec.peak_rss_mb = PeakRssMb();
  return rec;
}

/// Multi-permutation Route — the dense guard: occupancy stays near j
/// packets per processor for most of the run, so kAuto must not regress
/// against the plain dense sweep here.
WallRecord RunLoadedRoute(const MeshSpec& spec, const std::string& mode,
                          int reps) {
  Topology topo = spec.Build();
  constexpr int kPerms = 4;
  WallRecord rec;
  rec.workload = "loaded_route";
  rec.spec = spec;
  rec.mode = mode;
  rec.wall_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Network net(topo);
    Rng rng(7);
    std::int64_t id = 0;
    for (int t = 0; t < kPerms; ++t) {
      Rng perm_rng = rng.Split(static_cast<std::uint64_t>(t));
      auto dest = RandomPermutation(topo, perm_rng);
      for (ProcId p = 0; p < topo.size(); ++p) {
        Packet pkt;
        pkt.id = id++;
        pkt.key = static_cast<std::uint64_t>(pkt.id);
        pkt.dest = dest[static_cast<std::size_t>(p)];
        pkt.klass = static_cast<std::uint16_t>(t % spec.d);
        net.Add(p, pkt);
      }
    }
    Engine engine(topo, EngineOptionsFor(mode));
    const auto t0 = std::chrono::steady_clock::now();
    RouteResult r = engine.Route(net);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < rec.wall_ms) rec.wall_ms = ms;
    rec.steps = r.steps;
    rec.sparse_steps = r.sparse_steps;
    rec.moves = r.moves;
  }
  rec.peak_rss_mb = PeakRssMb();
  return rec;
}

/// Partial-occupancy drain: N/64 random packets on a mesh large enough
/// that a dense O(N) sweep dominates the per-step cost — the workload
/// class where the sparse active set must beat the dense sweep.
WallRecord RunDrainPartial(const MeshSpec& spec, const std::string& mode,
                           int reps) {
  Topology topo = spec.Build();
  const std::int64_t kPackets = topo.size() / 64;
  WallRecord rec;
  rec.workload = "drain_partial";
  rec.spec = spec;
  rec.mode = mode;
  rec.wall_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    Network net(topo);
    Rng rng(512);
    const auto kN = static_cast<std::uint64_t>(topo.size());
    for (std::int64_t i = 0; i < kPackets; ++i) {
      Packet pkt;
      pkt.id = i;
      pkt.key = static_cast<std::uint64_t>(i);
      const auto src = static_cast<ProcId>(rng.Below(kN));
      pkt.dest = static_cast<ProcId>(rng.Below(kN));
      pkt.klass = static_cast<std::uint16_t>(i % spec.d);
      net.Add(src, pkt);
    }
    Engine engine(topo, EngineOptionsFor(mode));
    const auto t0 = std::chrono::steady_clock::now();
    RouteResult r = engine.Route(net);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < rec.wall_ms) rec.wall_ms = ms;
    rec.steps = r.steps;
    rec.sparse_steps = r.sparse_steps;
    rec.moves = r.moves;
  }
  rec.peak_rss_mb = PeakRssMb();
  return rec;
}

/// --mega: a 2D n=4096 mesh (16.7M processors) carrying a *partial*
/// workload of 16384 random packets. Queue storage grows with the occupied
/// processors: an 8-byte directory slot per processor plus one pooled
/// queue block per occupied processor. The rest of the footprint is the
/// engine's O(N) tables: coordinates and the parity mailbox at 4-byte
/// handles and presence bytes per directed link — a mailbox of whole
/// packets would have been 2 x N x 2d x 48 bytes, 6 GiB on its own. The
/// record carries an RSS guard: the run must fit in 6 GiB.
WallRecord RunMegaPartial() {
  const MeshSpec spec{2, 4096, Wrap::kMesh};
  const std::int64_t kPackets = 16384;
  Topology topo = spec.Build();
  WallRecord rec;
  rec.workload = "mega_partial";
  rec.spec = spec;
  rec.mode = "sparse";
  rec.rss_guard_mb = 6144.0;
  Network net(topo);
  Rng rng(4096);
  const auto kN = static_cast<std::uint64_t>(topo.size());
  for (std::int64_t i = 0; i < kPackets; ++i) {
    Packet pkt;
    pkt.id = i;
    pkt.key = static_cast<std::uint64_t>(i);
    const auto src = static_cast<ProcId>(rng.Below(kN));
    pkt.dest = static_cast<ProcId>(rng.Below(kN));
    pkt.klass = static_cast<std::uint16_t>(i % spec.d);
    net.Add(src, pkt);
  }
  Engine engine(topo, EngineOptionsFor(rec.mode));
  const auto t0 = std::chrono::steady_clock::now();
  RouteResult r = engine.Route(net);
  rec.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  rec.steps = r.steps;
  rec.sparse_steps = r.sparse_steps;
  rec.moves = r.moves;
  rec.peak_rss_mb = PeakRssMb();
  if (!r.completed) {
    std::fprintf(stderr, "bench_engine --mega: mega_partial hit the step cap\n");
  }
  return rec;
}

// --perfetto: one instrumented two-phase drain exported as a Chrome-trace
// timeline — phase spans (TraceContext via TwoPhaseOptions::trace), engine
// counter tracks (CongestionTrace probe), and thread-pool worker tracks.
// CI schema-checks this artifact with check_perf_regression.py
// validate-trace.
void WritePerfettoTrace(const OutputFlags& flags) {
  const MeshSpec spec{3, 16, Wrap::kMesh};
  Topology topo = spec.Build();
  const std::vector<ProcId> dest = ReversalPermutation(topo);
  ThreadPool pool(2);
  ThreadPoolActivity activity;
  pool.set_activity(&activity);
  TraceContext ctx;
  // --perf: phase spans carry hardware-counter deltas, which the Chrome
  // trace exports as span args (visible in the Perfetto UI).
  if (flags.perf && !ctx.EnablePerfCounters()) {
    std::fprintf(stderr, "bench_engine --perf: %s\n", ctx.perf_error().c_str());
  }
  CongestionTrace trace;
  MetricsRegistry metrics;
  TwoPhaseOptions opts;
  opts.g = 4;
  opts.seed = 99;
  opts.trace = &ctx;
  opts.engine.pool = &pool;
  opts.engine.probes = {&trace};
  opts.engine.metrics = &metrics;
  RouteTwoPhase(topo, dest, opts);

  RunManifest manifest = MakeRunManifest(topo, opts.engine);
  manifest.seed = opts.seed;
  manifest.binary = "bench_engine";
  ChromeTraceWriter writer(manifest);
  writer.AddSpanTree(ctx);
  writer.AddCounters(trace);
  writer.AddWorkerActivity(activity);
  pool.set_activity(nullptr);
  writer.WriteFile(flags.perfetto);
}

// E24: per-phase hardware profile — one instrumented two-phase run per
// spec with perf_event_open counters scoped to each phase span. Emits one
// phase_perf record per span: steps, wall time, and (when the kernel
// grants counters) cycles / instructions / IPC / cache and branch misses.
// The wall-clock regression guard ignores these records — they carry no
// packet_steps_per_sec.
void EmitPhasePerf(BenchJson& json, const MeshSpec& spec) {
  Topology topo = spec.Build();
  const std::vector<ProcId> dest = ReversalPermutation(topo);
  TraceContext ctx;
  if (!ctx.EnablePerfCounters()) {
    std::fprintf(stderr, "bench_engine --perf: %s\n", ctx.perf_error().c_str());
  }
  TwoPhaseOptions opts;
  opts.g = spec.d == 2 ? 8 : 4;
  opts.seed = 99;
  opts.trace = &ctx;
  RouteTwoPhase(topo, dest, opts);
  for (std::size_t i = 1; i < ctx.nodes().size(); ++i) {
    const TraceContext::Node& n = ctx.nodes()[i];
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    w.Key("experiment").String("phase_perf");
    w.Key("spec").BeginObject();
    w.Key("d").Int(spec.d);
    w.Key("n").Int(spec.n);
    w.Key("wrap").String(spec.wrap == Wrap::kTorus ? "torus" : "mesh");
    w.EndObject();
    w.Key("phase").String(n.name);
    w.Key("top_level").Bool(n.parent == 0);
    w.Key("steps").Int(n.stats.steps);
    w.Key("moves").Int(n.stats.moves);
    w.Key("wall_ms").Double(n.end_ms >= 0.0 ? n.end_ms - n.begin_ms : 0.0);
    if (n.perf.cycles >= 0) w.Key("cycles").Int(n.perf.cycles);
    if (n.perf.instructions >= 0) {
      w.Key("instructions").Int(n.perf.instructions);
    }
    if (n.perf.ipc() >= 0.0) w.Key("ipc").Double(n.perf.ipc());
    if (n.perf.cache_misses >= 0) {
      w.Key("cache_misses").Int(n.perf.cache_misses);
    }
    if (n.perf.branch_misses >= 0) {
      w.Key("branch_misses").Int(n.perf.branch_misses);
    }
    w.EndObject();
    json.AddRaw(os.str());
  }
}

// E21 wall-clock records, keyed (workload, spec, mode): min-of-reps wall
// time and derived packet-moves-per-second throughput for the dense sweep
// vs the sparse active-set path on the same inputs.
void WriteThroughputJson(const OutputFlags& flags) {
  if (!flags.WantsJson()) return;
  BenchJson json("engine_wall");
  // The primary drain spec and its engine configuration describe the
  // artifact: real topology shape, sparse mode, and options hash instead
  // of the placeholder zero manifest (records sweeping other specs carry
  // their own spec object).
  const MeshSpec primary{2, 128, Wrap::kMesh};
  {
    RunManifest m = MakeRunManifest(primary.Build(), EngineOptionsFor("sparse"));
    m.binary = "bench_engine";
    m.seed = 99;  // the drain workload's two-phase seed
    json.SetManifest(std::move(m));
  }
  // --quick keeps the exact spec set (the regression guard matches records
  // by (workload, spec, mode), so CI must produce the same keys as the
  // committed baseline) and only drops the repetitions.
  const int reps = flags.quick ? 1 : 3;
  const std::vector<MeshSpec> drain_specs = {primary, {3, 32, Wrap::kMesh}};
  const std::vector<MeshSpec> loaded_specs = {{2, 64, Wrap::kMesh}};
  for (const MeshSpec& spec : drain_specs) {
    for (const char* mode : {"dense", "sparse"}) {
      EmitWallRecord(json, RunDrainTwoPhase(spec, mode, reps));
    }
  }
  for (const MeshSpec& spec : loaded_specs) {
    for (const char* mode : {"dense", "sparse"}) {
      EmitWallRecord(json, RunLoadedRoute(spec, mode, reps));
    }
  }
  const std::vector<MeshSpec> partial_specs = {{2, 512, Wrap::kMesh}};
  for (const MeshSpec& spec : partial_specs) {
    for (const char* mode : {"dense", "sparse"}) {
      EmitWallRecord(json, RunDrainPartial(spec, mode, reps));
    }
  }
  // E26 mega fixture: opt-in (multi-GB RSS, minutes of wall time), so the
  // committed baseline includes it but CI smoke loops skip it. The guard
  // only compares keys present on both sides.
  if (flags.mega) EmitWallRecord(json, RunMegaPartial());
  // --perf --json: append the E24 per-phase hardware records for the 2D
  // and 3D routing pipelines.
  if (flags.perf) {
    for (const MeshSpec& spec :
         {MeshSpec{2, 64, Wrap::kMesh}, MeshSpec{3, 16, Wrap::kMesh}}) {
      EmitPhasePerf(json, spec);
    }
  }
  json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_engine",
                  "E19/E21: simulator wall-clock records (--json) and timeline "
                  "(--perfetto)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  if (flags.WantsPerfetto()) mdmesh::WritePerfettoTrace(flags);
  mdmesh::WriteThroughputJson(flags);
  return 0;
}
