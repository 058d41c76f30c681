// Shared machinery of mdmesh_bench, the repository benchmark: run options,
// the report every workload fills, sample statistics, and the
// benchmark-owned layer trace.
//
// Every number is measured from outside the library: the benchmark times
// calls into public functions and reads public result structs, the
// TraceContext option the algorithms already take, MetricsRegistry, and
// ThreadPool counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workload/driver.h"

namespace mdmesh::bench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window. The batch workloads still complete a fixed
  /// number of runs, so the sim digest never depends on the window.
  double seconds = 10.0;
  /// Alternate traced and untraced runs and report per-layer metrics.
  bool traced = false;
  /// Tiny sizes for the build-tree smoke test.
  bool smoke = false;
  /// Scratch directory the workload may write to (service artifacts,
  /// checkpoint probes); created and removed by the benchmark.
  std::string work_dir;
  /// Where a traced run writes layers.json and trace.json.
  std::string trace_dir;
};

/// Fixture builds per process; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Input seed of run `i` (warm-ups use negative i): a pure function of the
/// workload seed, so one --seed always names the same inputs.
std::uint64_t RunSeed(std::uint64_t seed, std::int64_t i);

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Host speed on a shared machine drifts by tens of percent over seconds,
/// the same factor for every computation (on the 4-vCPU development host a
/// run's median time moved by up to 40% between processes, while its ratio
/// to an unrelated sort moved by under 4%). The benchmark therefore reports
/// end-to-end host times at reference speed: each measured time is scaled
/// by kReferenceMs / r, where r is how long a fixed computation that shares
/// no code with mdmesh (std::sort of a fixed pseudo-random array) takes
/// around the measurement. On a host that runs the reference in
/// kReferenceMs, reported and measured times agree.
class SpeedReference {
 public:
  static constexpr double kReferenceMs = 4.0;

  SpeedReference();
  /// Runs the reference once; returns its duration (ms).
  double MeasureMs();

 private:
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> work_;
};

class Report {
 public:
  /// A metric measured once per process.
  void Set(const std::string& name, const std::string& unit, double value);
  /// One sample of a metric reported as the median of its samples.
  void Sample(const std::string& name, const std::string& unit, double value);
  /// Counts one operation; a failure keeps its reason (first few only).
  void Attempt(bool ok, const std::string& what);
  /// Folds a simulated quantity into the workload's sim digest (FNV-1a).
  void Digest(std::uint64_t v);

  /// {"workload", "seed", "attempted", "failed", "errors", "sim_digest",
  ///  "metrics": {name: {"value", "unit", "samples"}}}
  void WriteFile(const std::string& path, const BenchOptions& opts) const;

 private:
  struct Metric {
    std::string unit;
    std::vector<double> values;
    bool sampled = false;
  };
  std::map<std::string, Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::uint64_t digest_ = 14695981039346656037ull;
};

/// What a traced run writes at exit: the span tree of every layer call the
/// benchmark made (TraceContext), the manifest embedded in trace.json, and
/// the worker-lane activity of the first traced 2-worker run (route_perm
/// only; null elsewhere).
struct TraceRecord {
  TraceContext ctx;
  RunManifest manifest;
  std::unique_ptr<ThreadPoolActivity> pool_activity;
};

/// Summed duration (ms) of the spans below `node` named `name`.
double DescendantMs(const TraceContext& ctx, std::size_t node,
                    const std::string& name);

/// One open-loop run split at its layer boundaries: the run RunOpenLoop
/// makes, driven through Engine::Route directly with a timing StepInjector
/// around OpenLoopInjector, so injector time separates from engine time.
struct TimedOpenLoop {
  WorkloadResult result;  ///< route, offered/delivered, stable, latency_p99,
                          ///< delivery_hash (the fields the benchmark reads)
  double ctor_ms = 0.0;     ///< Engine construction
  double route_ms = 0.0;    ///< Engine::Route, injector calls included
  double inject_ms = 0.0;   ///< inside StepInjector::Inject
  double deliver_ms = 0.0;  ///< inside StepInjector::OnDeliver
};

/// Opens "net.Engine" and "net.Route" spans under the caller's open span
/// when `trace` is set.
TimedOpenLoop RunOpenLoopTimed(const Topology& topo,
                               const TrafficPattern& pattern,
                               const DriverOptions& dopts,
                               const EngineOptions& eopts,
                               TraceContext* trace);

/// Samples the per-layer metrics a TimedOpenLoop and its MetricsRegistry
/// give (workload.*, net.*).
void SampleOpenLoopLayers(const TimedOpenLoop& run, MetricsRegistry& reg,
                          Report& rep);

// Workload entry points. Each returns a process exit code: 0 when the run
// is valid (correctness failures are reported in the Report), 3 when the
// measurement itself is invalid and must not be reported.
int RunRoutePerm(const BenchOptions& opts, Report& rep, TraceRecord* trace);
int RunSortSimple(const BenchOptions& opts, Report& rep, TraceRecord* trace);
int RunDrainSparse(const BenchOptions& opts, Report& rep, TraceRecord* trace);
int RunOpenLoopWorkload(const BenchOptions& opts, Report& rep,
                        TraceRecord* trace);
int RunServeMixed(const BenchOptions& opts, Report& rep, TraceRecord* trace);

}  // namespace mdmesh::bench
