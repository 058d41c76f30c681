// E22/E23 (DESIGN.md §3): dynamic workloads under open-loop injection.
// E22 sweeps the offered rate for several traffic patterns on a 3D mesh and
// reports the latency quantiles and accepted throughput at each point —
// latency rises toward the measured saturation rate. E23 bisects for the
// saturation rate itself across dimension, side, and engine traversal
// policy. The workload_wall records (BENCH_workloads.json) feed the CI
// perf-smoke guard (scripts/check_perf_regression.py) alongside the engine
// bench.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

SparseMode ModeFor(const std::string& mode) {
  return mode == "dense" ? SparseMode::kNever : SparseMode::kAuto;
}

/// Shared windowing for every run in this bench. --quick shrinks the
/// windows; the record keys (experiment, pattern, spec, rate, mode) are
/// unaffected, so CI output stays comparable to the committed baseline.
DriverOptions Windows(bool quick) {
  DriverOptions d;
  d.warmup_steps = quick ? 32 : 128;
  d.measure_steps = quick ? 128 : 512;
  d.seed = 11;
  return d;
}

void WriteSpec(JsonWriter& w, const MeshSpec& spec) {
  w.Key("spec").BeginObject();
  w.Key("d").Int(spec.d);
  w.Key("n").Int(spec.n);
  w.Key("wrap").String(spec.wrap == Wrap::kTorus ? "torus" : "mesh");
  w.EndObject();
}

// ---------------------------------------------------------------------------
// E22: latency vs offered rate, per pattern.

struct LatencyPoint {
  MeshSpec spec;
  WorkloadResult run;
};

void EmitLatencyRecord(BenchJson& json, const LatencyPoint& pt) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").String("workload_latency");
  WriteSpec(w, pt.spec);
  w.Key("pattern").String(pt.run.pattern);
  w.Key("rate").Double(pt.run.driver.rate);
  w.Key("seed").UInt(pt.run.driver.seed);
  w.Key("warmup_steps").Int(pt.run.driver.warmup_steps);
  w.Key("measure_steps").Int(pt.run.driver.measure_steps);
  w.Key("offered").Int(pt.run.offered);
  w.Key("delivered").Int(pt.run.delivered);
  w.Key("throughput").Double(pt.run.throughput);
  w.Key("stable").Bool(pt.run.stable);
  w.Key("latency_count").Int(pt.run.latency_count);
  w.Key("latency_mean").Double(pt.run.latency_mean);
  w.Key("latency_p50").Double(pt.run.latency_p50);
  w.Key("latency_p95").Double(pt.run.latency_p95);
  w.Key("latency_p99").Double(pt.run.latency_p99);
  w.Key("latency_max").Int(pt.run.latency_max);
  w.Key("steps").Int(pt.run.route.steps);
  w.Key("peak_active_procs").Int(pt.run.route.peak_active_procs);
  w.EndObject();
  json.AddRaw(os.str());
}

const std::vector<PatternKind>& LatencyPatterns() {
  static const std::vector<PatternKind> kPatterns = {
      PatternKind::kUniform, PatternKind::kBitReversal,
      PatternKind::kTranspose, PatternKind::kHotSpot};
  return kPatterns;
}

std::vector<LatencyPoint> RunLatencySweep(bool quick) {
  const MeshSpec spec{3, 8, Wrap::kMesh};
  const Topology topo = spec.Build();
  const std::vector<double> rates = {0.02, 0.05, 0.10, 0.20, 0.40};
  std::vector<LatencyPoint> points;
  for (PatternKind kind : LatencyPatterns()) {
    TrafficPattern pattern(topo, kind, /*seed=*/17);
    for (double rate : rates) {
      DriverOptions dopts = Windows(quick);
      dopts.rate = rate;
      points.push_back({spec, RunOpenLoop(topo, pattern, dopts)});
    }
  }
  return points;
}

void PrintLatencyTable(const std::vector<LatencyPoint>& points) {
  std::printf("E22: open-loop latency vs offered rate (3D mesh, n=8)\n");
  Table table({"pattern", "rate", "throughput", "p50", "p95", "p99",
               "stable"});
  for (const LatencyPoint& pt : points) {
    table.Row()
        .Cell(pt.run.pattern)
        .Cell(pt.run.driver.rate, 2)
        .Cell(pt.run.throughput, 3)
        .Cell(pt.run.latency_p50, 1)
        .Cell(pt.run.latency_p95, 1)
        .Cell(pt.run.latency_p99, 1)
        .Cell(pt.run.stable ? "yes" : "NO");
  }
  table.Print();
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// E23: saturation rate vs dimension, side, and traversal policy.

struct SaturationPoint {
  MeshSpec spec;
  std::string pattern;
  std::string mode;
  SaturationResult result;
};

void EmitSaturationRecord(BenchJson& json, const SaturationPoint& pt) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").String("workload_saturation");
  WriteSpec(w, pt.spec);
  w.Key("pattern").String(pt.pattern);
  w.Key("mode").String(pt.mode);
  w.Key("saturation_rate").Double(pt.result.rate);
  w.Key("unstable_rate").Double(pt.result.unstable_rate);
  w.Key("probes").Int(static_cast<std::int64_t>(pt.result.probes.size()));
  w.EndObject();
  json.AddRaw(os.str());
}

std::vector<SaturationPoint> RunSaturationSweep(bool quick) {
  const std::vector<MeshSpec> specs = {{2, 8, Wrap::kMesh},
                                       {2, 16, Wrap::kMesh},
                                       {3, 8, Wrap::kMesh},
                                       {4, 4, Wrap::kMesh}};
  SaturationOptions sopts;
  sopts.iterations = quick ? 4 : 6;
  std::vector<SaturationPoint> points;
  for (const MeshSpec& spec : specs) {
    const Topology topo = spec.Build();
    TrafficPattern pattern(topo, PatternKind::kUniform, /*seed=*/17);
    for (const char* mode : {"dense", "sparse"}) {
      EngineOptions eopts;
      eopts.sparse = ModeFor(mode);
      points.push_back({spec, pattern.name(), mode,
                        FindSaturationRate(topo, pattern, Windows(quick),
                                           sopts, eopts)});
    }
  }
  return points;
}

void PrintSaturationTable(const std::vector<SaturationPoint>& points) {
  std::printf("E23: saturation rate (uniform traffic) vs d, n, policy\n");
  Table table({"spec", "mode", "saturation", "unstable_at"});
  for (const SaturationPoint& pt : points) {
    table.Row()
        .Cell(pt.spec.ToString())
        .Cell(pt.mode)
        .Cell(pt.result.rate, 4)
        .Cell(pt.result.unstable_rate, 4);
  }
  table.Print();
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// workload_wall: timed open-loop runs for the CI perf guard.

struct WallRecord {
  std::string workload;
  MeshSpec spec;
  std::string mode;
  std::int64_t steps = 0;
  std::int64_t moves = 0;
  double wall_ms = 0.0;
};

void EmitWallRecord(BenchJson& json, const WallRecord& rec) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("experiment").String("workload_wall");
  w.Key("workload").String(rec.workload);
  WriteSpec(w, rec.spec);
  w.Key("mode").String(rec.mode);
  w.Key("steps").Int(rec.steps);
  w.Key("moves").Int(rec.moves);
  w.Key("wall_ms").Double(rec.wall_ms);
  w.Key("packet_steps_per_sec")
      .Double(rec.wall_ms > 0.0
                  ? static_cast<double>(rec.moves) * 1000.0 / rec.wall_ms
                  : 0.0);
  w.EndObject();
  json.AddRaw(os.str());
}

/// One timed open-loop run (uniform traffic at a below-saturation rate):
/// min-of-reps wall time over the full injection + routing loop.
WallRecord RunWall(const MeshSpec& spec, const std::string& mode, bool quick) {
  const Topology topo = spec.Build();
  TrafficPattern pattern(topo, PatternKind::kUniform, /*seed=*/17);
  DriverOptions dopts = Windows(quick);
  dopts.rate = 0.1;
  dopts.drain = true;
  EngineOptions eopts;
  eopts.sparse = ModeFor(mode);
  const int reps = quick ? 1 : 3;
  WallRecord rec{"open_loop_uniform", spec, mode, 0, 0, 1e300};
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    WorkloadResult r = RunOpenLoop(topo, pattern, dopts, eopts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < rec.wall_ms) rec.wall_ms = ms;
    rec.steps = r.route.steps;
    rec.moves = r.route.moves;
  }
  return rec;
}

// ---------------------------------------------------------------------------
// --perfetto: one instrumented open-loop capture exported as a Chrome-trace
// timeline (phase spans, engine counter tracks, thread-pool worker tracks,
// embedded run manifest). Runs on a small local pool so the worker tracks
// show real parallel dispatches; the engine is byte-identical at any thread
// count, so this changes no results.

void WritePerfettoTrace(const OutputFlags& flags) {
  const MeshSpec spec{3, 8, Wrap::kMesh};
  const Topology topo = spec.Build();
  ThreadPool pool(2);
  ThreadPoolActivity activity;
  pool.set_activity(&activity);
  TraceContext ctx;
  CongestionTrace trace;
  MetricsRegistry metrics;
  EngineOptions eopts;
  eopts.pool = &pool;
  eopts.probes = {&trace};
  eopts.metrics = &metrics;

  DriverOptions dopts = Windows(flags.quick);
  dopts.rate = 0.2;
  dopts.drain = true;
  TrafficPattern uniform(topo, PatternKind::kUniform, /*seed=*/17);
  TrafficPattern transpose(topo, PatternKind::kTranspose, /*seed=*/17);
  for (const TrafficPattern* pattern : {&uniform, &transpose}) {
    Span span = ctx.Open(std::string("open_loop_") + pattern->name());
    const WorkloadResult r = RunOpenLoop(topo, *pattern, dopts, eopts);
    r.route.RecordTo(span);
  }

  RunManifest manifest = MakeRunManifest(topo, eopts);
  manifest.seed = dopts.seed;
  manifest.binary = "bench_workloads";
  ChromeTraceWriter writer(manifest);
  writer.AddSpanTree(ctx);
  writer.AddCounters(trace);
  writer.AddWorkerActivity(activity);
  pool.set_activity(nullptr);
  writer.WriteFile(flags.perfetto);
}

void RunAllAndReport(const OutputFlags& flags) {
  if (flags.WantsPerfetto()) WritePerfettoTrace(flags);
  const std::vector<LatencyPoint> latency = RunLatencySweep(flags.quick);
  PrintLatencyTable(latency);
  const std::vector<SaturationPoint> saturation =
      RunSaturationSweep(flags.quick);
  PrintSaturationTable(saturation);
  if (!flags.WantsJson()) return;
  BenchJson json("workloads");
  {
    RunManifest m = json.manifest();
    m.binary = "bench_workloads";
    m.seed = 11;  // the shared Windows() driver seed
    json.SetManifest(std::move(m));
  }
  for (const LatencyPoint& pt : latency) EmitLatencyRecord(json, pt);
  for (const SaturationPoint& pt : saturation) EmitSaturationRecord(json, pt);
  // Wall records use a fixed spec set for the same reason as bench_engine:
  // the regression guard matches keys, so CI (--quick) must produce the
  // same (workload, spec, mode) keys as the committed baseline.
  for (const MeshSpec spec : {MeshSpec{2, 32, Wrap::kMesh},
                              MeshSpec{3, 16, Wrap::kMesh}}) {
    for (const char* mode : {"dense", "sparse"}) {
      EmitWallRecord(json, RunWall(spec, mode, flags.quick));
    }
  }
  json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_workloads",
                  "E22/E23: open-loop latency and saturation");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::RunAllAndReport(flags);
  return 0;
}
