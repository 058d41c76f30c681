// mdmesh_bench: one workload of the repository benchmark per process, so
// setup_s and peak_rss_mb belong to that workload alone. Driven by
// run_benchmark.py, which builds this binary and prints the result line.
//
//   mdmesh_bench --workload=NAME --seed=S --seconds=T [--traced] [--smoke]
//                --out=FILE [--work-dir=DIR] [--trace-dir=DIR]
//
// Writes every measured metric to FILE as JSON (see Report::WriteFile).
// Exit codes: 0 measured (correctness is in the file), 2 usage, 3 the
// measurement is invalid (e.g. the load generator ran late).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/output.h"
#include "util/cli.h"
#include "util/rng.h"

namespace mdmesh::bench {

std::uint64_t RunSeed(std::uint64_t seed, std::int64_t i) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull ^
                        static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull;
  return SplitMix64(state);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpeedReference::SpeedReference() : base_(std::size_t{1} << 16) {
  std::uint64_t state = 0x243f6a8885a308d3ull;
  for (std::uint64_t& v : base_) v = SplitMix64(state);
  work_.resize(base_.size());
}

double SpeedReference::MeasureMs() {
  const auto t0 = Clock::now();
  std::copy(base_.begin(), base_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  return MsSince(t0);
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.values.assign(1, value);
  m.sampled = false;
}

void Report::Sample(const std::string& name, const std::string& unit,
                    double value) {
  Metric& m = metrics_[name];
  m.unit = unit;
  m.values.push_back(value);
  m.sampled = true;
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

void Report::Digest(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xff;
    digest_ *= 1099511628211ull;
  }
}

void Report::WriteFile(const std::string& path,
                       const BenchOptions& opts) const {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("workload").String(opts.workload);
  w.Key("seed").UInt(opts.seed);
  w.Key("smoke").Bool(opts.smoke);
  w.Key("traced").Bool(opts.traced);
  w.Key("attempted").Int(attempted_);
  w.Key("failed").Int(failed_);
  w.Key("errors").BeginArray();
  for (const std::string& e : errors_) w.String(e);
  w.EndArray();
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(digest_));
  w.Key("sim_digest").String(digest);
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : metrics_) {
    w.Key(name).BeginObject();
    w.Key("value").Double(m.sampled ? Median(m.values) : m.values.front());
    w.Key("unit").String(m.unit);
    w.Key("samples").Int(static_cast<std::int64_t>(m.values.size()));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  os << '\n';
  std::ofstream file = OpenOutputFile(path, "--out");
  file << os.str();
}

namespace {

double SpanMs(const TraceContext& ctx, std::size_t node) {
  const TraceContext::Node& n = ctx.nodes()[node];
  return n.end_ms - n.begin_ms;
}

/// A span's self time: its duration minus the part its child spans cover.
double SelfMs(const TraceContext& ctx, std::size_t node) {
  // Children of one span are closed in LIFO order, so they never overlap
  // each other: their durations add up to the part of the parent they
  // cover.
  double covered = 0.0;
  for (std::size_t c : ctx.nodes()[node].children) covered += SpanMs(ctx, c);
  return SpanMs(ctx, node) - covered;
}

/// Median over "run" spans of the share no child span covers: benchmark
/// time no layer call accounts for.
double UnattributedShare(const TraceContext& ctx) {
  std::vector<double> shares;
  for (std::size_t i = 1; i < ctx.nodes().size(); ++i) {
    if (ctx.nodes()[i].name != "run") continue;
    const double ms = SpanMs(ctx, i);
    if (ms > 0.0) shares.push_back(SelfMs(ctx, i) / ms);
  }
  return Median(shares);
}

/// Ordinal of the "run" span enclosing `node` (-1 outside any run).
std::int64_t RunOrdinal(const TraceContext& ctx, std::size_t node,
                        const std::vector<std::int64_t>& ordinal) {
  for (std::size_t n = node; n != 0; n = ctx.nodes()[n].parent) {
    if (ordinal[n] >= 0) return ordinal[n];
  }
  return -1;
}

/// Writes <dir>/layers.json (every span with its run id, parent, and self
/// time; per-name totals; unattributed_ms) and <dir>/trace.json (Perfetto,
/// through ChromeTraceWriter).
void WriteTraceFiles(const TraceRecord& trace, const std::string& dir,
                     const BenchOptions& opts) {
  const TraceContext& ctx = trace.ctx;
  const std::vector<TraceContext::Node>& nodes = ctx.nodes();
  std::vector<std::int64_t> ordinal(nodes.size(), -1);
  std::int64_t runs = 0;
  double run_ms = 0.0;
  double unattributed_ms = 0.0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].name != "run") continue;
    ordinal[i] = runs++;
    run_ms += SpanMs(ctx, i);
    unattributed_ms += SelfMs(ctx, i);
  }
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    Totals& t = by_name[nodes[i].name];
    ++t.count;
    t.total_ms += SpanMs(ctx, i);
    t.self_ms += SelfMs(ctx, i);
  }

  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("workload").String(opts.workload);
  w.Key("seed").UInt(opts.seed);
  w.Key("traced_runs").Int(runs);
  w.Key("traced_run_ms").Double(run_ms);
  w.Key("unattributed_ms").Double(unattributed_ms);
  w.Key("layers").BeginObject();
  for (const auto& [name, t] : by_name) {
    w.Key(name).BeginObject();
    w.Key("count").Int(t.count);
    w.Key("total_ms").Double(t.total_ms);
    w.Key("self_ms").Double(t.self_ms);
    w.EndObject();
  }
  w.EndObject();
  w.Key("spans").BeginArray();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    w.BeginObject();
    w.Key("id").Int(static_cast<std::int64_t>(i));
    w.Key("name").String(nodes[i].name);
    w.Key("parent").Int(static_cast<std::int64_t>(nodes[i].parent));
    w.Key("run").Int(RunOrdinal(ctx, i, ordinal));
    w.Key("begin_ms").Double(nodes[i].begin_ms);
    w.Key("end_ms").Double(nodes[i].end_ms);
    w.Key("self_ms").Double(SelfMs(ctx, i));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
  std::filesystem::create_directories(dir);
  std::ofstream layers = OpenOutputFile(dir + "/layers.json", "--trace-dir");
  layers << os.str();

  ChromeTraceWriter writer(trace.manifest);
  writer.AddSpanTree(ctx);
  if (trace.pool_activity != nullptr) {
    writer.AddWorkerActivity(*trace.pool_activity);
  }
  writer.WriteFile(dir + "/trace.json");
}

}  // namespace

double DescendantMs(const TraceContext& ctx, std::size_t node,
                    const std::string& name) {
  double total = 0.0;
  for (std::size_t c : ctx.nodes()[node].children) {
    if (ctx.nodes()[c].name == name) total += SpanMs(ctx, c);
    total += DescendantMs(ctx, c, name);
  }
  return total;
}

}  // namespace mdmesh::bench

int main(int argc, char** argv) {
  using namespace mdmesh;
  using namespace mdmesh::bench;
  Cli cli("mdmesh_bench", "one workload of the mdmesh repository benchmark");
  cli.AddString("workload", "", "route_perm | sort_simple | drain_sparse | "
                                "open_loop | serve_mixed");
  cli.AddInt("seed", 1, "workload seed; every input derives from it");
  cli.AddInt("seconds", 10, "length of the timed window");
  cli.AddBool("traced", false, "alternate traced runs; report layer metrics");
  cli.AddBool("smoke", false, "tiny sizes (build-tree smoke test)");
  cli.AddString("out", "", "result JSON path (required)");
  cli.AddString("work-dir", "", "scratch directory (default: <out>.work)");
  cli.AddString("trace-dir", "", "layers.json / trace.json directory");
  if (!cli.Parse(argc, argv)) return 2;

  BenchOptions opts;
  opts.workload = cli.GetString("workload");
  opts.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  opts.seconds = static_cast<double>(std::max<std::int64_t>(
      cli.GetInt("seconds"), 0));
  opts.traced = cli.GetBool("traced");
  opts.smoke = cli.GetBool("smoke");
  const std::string out = cli.GetString("out");
  if (out.empty()) {
    std::fprintf(stderr, "mdmesh_bench: --out is required\n%s",
                 cli.Usage().c_str());
    return 2;
  }
  opts.work_dir = cli.GetString("work-dir");
  if (opts.work_dir.empty()) opts.work_dir = out + ".work";
  opts.trace_dir = cli.GetString("trace-dir");
  if (opts.trace_dir.empty()) opts.trace_dir = out + ".trace";

  using WorkloadFn = int (*)(const BenchOptions&, Report&, TraceRecord*);
  const std::map<std::string, WorkloadFn> workloads = {
      {"route_perm", RunRoutePerm},   {"sort_simple", RunSortSimple},
      {"drain_sparse", RunDrainSparse}, {"open_loop", RunOpenLoopWorkload},
      {"serve_mixed", RunServeMixed}};
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "mdmesh_bench: unknown --workload '%s'\n%s",
                 opts.workload.c_str(), cli.Usage().c_str());
    return 2;
  }

  Report rep;
  std::unique_ptr<TraceRecord> trace;
  if (opts.traced) {
    trace = std::make_unique<TraceRecord>();
    trace->manifest.seed = opts.seed;
    trace->manifest.binary = "mdmesh_bench";
    trace->manifest.build_type = BuildTypeName();
  }
  std::filesystem::create_directories(opts.work_dir);
  const int status = it->second(opts, rep, trace.get());
  std::error_code ec;
  std::filesystem::remove_all(opts.work_dir, ec);
  if (status != 0) return status;

  rep.Set("peak_rss_mb", "MiB", PeakRssMb());
  if (trace != nullptr) {
    rep.Set("unattributed_frac", "frac", UnattributedShare(trace->ctx));
    WriteTraceFiles(*trace, opts.trace_dir, opts);
  }
  rep.WriteFile(out, opts);
  return 0;
}
