// serve_mixed: the experiment service under an open-loop submission stream.
//
// An in-process ExperimentService (2 workers, serial engines, the default
// checkpoint cadence and 10 per-mille journeys, keep_completed_runs 64,
// artifacts under the work directory) receives Poisson submissions at 10/s
// through HttpFetch POST /runs. One client thread submits on schedule and
// polls completion through scheduler().Get every 1 ms. A fifth of the
// submissions repeat an earlier spec, so they deduplicate: the serve layer
// does its work with none for the engine. Specs are small (2D n = 16 or 3D
// n = 8, 64 + 256 steps, drain), so HTTP, queueing, checkpoint writes and
// artifacts carry most of the cost. The rate keeps the service below
// saturation for the whole window: every submission and every completion
// rewrites queue.json with all records so far, and at 40/s the service on
// the 4-vCPU development host saturated within 15 s, after which latency
// measures the collapse rather than the service.
//
// Latency is timed from each submission's due time, so a stall counts
// against every submission it delays, including the time the client spends
// blocked in the service's own calls (the POST round trip, Get waiting on
// the scheduler lock). The generator's own lateness -- how long after a
// submission was due, and the client was free of service calls, it actually
// sent -- is reported, and a run whose generator fell behind on its own
// account is invalid: it exits 3 instead of reporting the stall as service
// latency.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "ckpt/manager.h"
#include "obs/journey.h"
#include "serve/json_value.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/patterns.h"

namespace mdmesh::bench {
namespace {

constexpr double kRatePerS = 10.0;
constexpr double kRepeatShare = 0.2;
constexpr double kSloMs = 200.0;
/// loadgen.late_ms_p90 above this invalidates the run. The gate sits at
/// p90, the highest percentile with ten submissions beyond it in a 15 s
/// window: p99 would be the second-largest of 150 values, and one host
/// preemption of the client thread would void the run.
constexpr double kMaxLateP90Ms = 5.0;
constexpr double kPollMs = 1.0;
/// Host-speed re-measurement period inside the window.
constexpr double kSpeedEveryMs = 250.0;
/// Unique specs re-run directly after the window: delivery-hash checks,
/// sim digest, sim_steps_per_D.
constexpr std::size_t kVerifySpecs = 50;
/// Unique specs the traced run re-runs through the layer probes.
constexpr std::size_t kProbeSpecs = 20;
constexpr std::size_t kMinSubmissions = 10;
/// A service start takes about a millisecond, so it is cheap to repeat
/// more often than the batch fixtures; more repeats steady setup_s.
constexpr int kServiceSetupReps = 3 * kSetupReps;
constexpr double kDrainTimeoutMs = 60000.0;

RunSpec UniqueSpec(std::uint64_t seed, std::int64_t u) {
  RunSpec s;
  const bool two_d = u % 2 == 0;
  s.d = two_d ? 2 : 3;
  s.n = two_d ? 16 : 8;
  s.pattern = PatternKind::kUniform;
  s.pattern_seed = RunSeed(seed, u);
  s.driver.rate = 0.05;
  s.driver.warmup_steps = 64;
  s.driver.measure_steps = 256;
  s.driver.drain = true;
  s.driver.seed = RunSeed(s.pattern_seed, u);
  return s;
}

/// Set-up probe; its pattern differs from every workload spec, so nothing
/// in the window deduplicates against it.
RunSpec WarmupSpec() {
  RunSpec s;
  s.pattern = PatternKind::kTranspose;
  s.driver.warmup_steps = 16;
  s.driver.measure_steps = 64;
  s.driver.drain = true;
  return s;
}

struct Submission {
  std::size_t spec = 0;      ///< index into the unique spec list
  double due_ms = 0.0;       ///< times are ms since the window opened
  double sent_ms = -1.0;
  double acked_ms = -1.0;
  double running_ms = -1.0;  ///< first poll that saw the run executing
  double done_ms = -1.0;
  double late_ms = 0.0;      ///< generator's own lateness (see the top)
  double scale = 1.0;        ///< SpeedReference scale when it was sent
  std::int64_t id = -1;
  bool accepted = false;
  bool deduped = false;
  RunState state = RunState::kQueued;
  std::int64_t moves = 0;
  std::string error;
};

/// POSTs a spec; fills id/deduped/accepted from the 202 reply.
void Submit(int port, const std::string& body, Submission& s) {
  const HttpResult res = HttpFetch(port, "POST", "/runs", body);
  if (!res.ok || res.status != 202) {
    s.error = res.ok ? "POST /runs returned " + std::to_string(res.status)
                     : "POST /runs failed: " + res.error;
    return;
  }
  const JsonParseResult reply = ParseJson(res.body);
  s.accepted = reply.ok;
  s.id = reply.value["id"].AsInt();
  s.deduped = reply.value["deduped"].AsBool();
  if (!reply.ok) s.error = "unparsable 202 reply: " + reply.error;
}

bool Finished(RunState state) {
  return state == RunState::kDone || state == RunState::kFailed;
}

/// Blocks until run `id` finishes; false on timeout.
bool WaitFinished(RunScheduler& scheduler, std::int64_t id, double limit_ms) {
  const auto t0 = Clock::now();
  RunRecord rec;
  while (MsSince(t0) < limit_ms) {
    if (scheduler.Get(id, &rec) && Finished(rec.state)) {
      return rec.state == RunState::kDone;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

/// Starts a service: once Start returns, its listener accepts submissions.
std::unique_ptr<ExperimentService> StartService(const std::string& dir,
                                                std::string* error) {
  ServiceOptions so;
  so.scheduler.artifacts_dir = dir;
  so.scheduler.workers = 2;
  so.scheduler.threads_per_run = 0;
  so.scheduler.keep_completed_runs = 64;
  auto service = std::make_unique<ExperimentService>(so);
  if (!service->Start(error)) return nullptr;
  return service;
}

/// Pushes one run through the service before the window opens, so the
/// first timed submission does not pay for lazy set-up.
bool WarmUp(ExperimentService& service, std::string* error) {
  Submission warm;
  Submit(service.port(), WarmupSpec().ToJson(), warm);
  if (warm.accepted &&
      WaitFinished(service.scheduler(), warm.id, kDrainTimeoutMs)) {
    return true;
  }
  *error = "warm-up run did not complete " + warm.error;
  return false;
}

/// Forwards to a CheckpointManager and records each save's duration and
/// file size.
class TimingCheckpointSink final : public CheckpointSink {
 public:
  explicit TimingCheckpointSink(CheckpointManager& inner) : inner_(inner) {}
  bool Due(std::int64_t step) override { return inner_.Due(step); }
  void Save(const EngineCheckpointState& state, const char* cause) override {
    const auto t0 = Clock::now();
    inner_.Save(state, cause);
    save_ms.push_back(MsSince(t0));
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(inner_.last_path(), ec);
    if (!ec) save_bytes.push_back(static_cast<double>(bytes));
  }

  std::vector<double> save_ms;
  std::vector<double> save_bytes;

 private:
  CheckpointManager& inner_;
};

/// Counter and gauge values from a Prometheus text body (absent = 0).
double PromValue(const std::string& body, const std::string& name) {
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

/// Re-runs unique spec `spec` through the per-layer probes: the timed
/// open loop (workload.*, net.*), a timing checkpoint sink at the service's
/// cadence (ckpt.*), and the run with and without a journey tracer.
void ProbeLayers(const RunSpec& spec, const std::string& ckpt_dir,
                 ThreadPool& pool, Report& rep, std::vector<double>* save_ms,
                 double* plain_ms, double* journey_ms) {
  const Topology topo(spec.d, spec.n, spec.torus ? Wrap::kTorus : Wrap::kMesh);
  const TrafficPattern pattern(topo, spec.pattern, spec.pattern_seed,
                               spec.pattern_opts);
  EngineOptions eo = spec.MakeEngineOptions();
  eo.pool = &pool;

  MetricsRegistry reg;
  EngineOptions timed_eo = eo;
  timed_eo.metrics = &reg;
  SampleOpenLoopLayers(
      RunOpenLoopTimed(topo, pattern, spec.driver, timed_eo, nullptr), reg,
      rep);

  const SchedulerOptions defaults;
  CheckpointOptions copts;
  copts.dir = ckpt_dir;
  copts.every_steps = defaults.checkpoint_every_steps;
  copts.keep = defaults.checkpoint_keep;
  CheckpointManager manager(copts);
  TimingCheckpointSink sink(manager);
  EngineOptions ckpt_eo = eo;
  ckpt_eo.checkpoint = &sink;
  (void)RunOpenLoop(topo, pattern, spec.driver, ckpt_eo);
  save_ms->insert(save_ms->end(), sink.save_ms.begin(), sink.save_ms.end());
  rep.Sample("ckpt.saves", "count", static_cast<double>(sink.save_ms.size()));
  for (double bytes : sink.save_bytes) {
    rep.Sample("ckpt.bytes_per_save", "bytes", bytes);
  }

  auto t0 = Clock::now();
  (void)RunOpenLoop(topo, pattern, spec.driver, eo);
  *plain_ms += MsSince(t0);
  JourneyTracer::Options jopts;
  jopts.sample_rate = static_cast<double>(defaults.journey_rate_pm) / 1000.0;
  jopts.seed = spec.Fingerprint();
  JourneyTracer journeys(jopts);
  EngineOptions journey_eo = eo;
  journey_eo.journeys = &journeys;
  t0 = Clock::now();
  (void)RunOpenLoop(topo, pattern, spec.driver, journey_eo);
  *journey_ms += MsSince(t0);
}

}  // namespace

int RunServeMixed(const BenchOptions& opts, Report& rep, TraceRecord* trace) {
  // Set-up: start the service kServiceSetupReps times; the last one stays
  // up for the window. Set-up excludes the warm-up run: its half-dozen
  // fsync calls made setup_s follow the host disk, whose median moved by
  // 37% between two back-to-back 10-seed sets.
  SpeedReference speed;
  std::unique_ptr<ExperimentService> service;
  for (int r = 0; r < kServiceSetupReps; ++r) {
    service.reset();
    // The artifact root is deployment state, made before the clock starts;
    // creating it on the checkout's disk took as long as the start itself.
    const std::string dir = opts.work_dir + "/service-" + std::to_string(r);
    std::filesystem::create_directories(dir);
    const double scale = SpeedReference::kReferenceMs / speed.MeasureMs();
    const auto t0 = Clock::now();
    std::string error;
    service = StartService(dir, &error);
    rep.Sample("setup_s", "s", MsSince(t0) * scale / 1000.0);
    rep.Attempt(service != nullptr, "service set-up: " + error);
    if (service == nullptr) return 0;
  }
  {
    std::string error;
    const bool warm = WarmUp(*service, &error);
    rep.Attempt(warm, "service warm-up: " + error);
    if (!warm) return 0;
  }
  RunScheduler& scheduler = service->scheduler();
  const int port = service->port();

  // The submission stream: rate x window submissions at Poisson arrival
  // times, a fifth of them repeating an earlier unique spec. The count is
  // fixed so every seed submits the same amount of work.
  Rng rng(opts.seed);
  std::vector<RunSpec> specs;
  std::vector<std::string> bodies;
  std::vector<std::size_t> first_sub;  // per unique spec
  std::vector<Submission> subs;
  const auto count = std::max(
      kMinSubmissions,
      static_cast<std::size_t>(std::lround(kRatePerS * opts.seconds)));
  for (double due = 0.0; subs.size() < count;
       due += -std::log(1.0 - rng.Unit()) * 1000.0 / kRatePerS) {
    Submission s;
    s.due_ms = due;
    if (!specs.empty() && rng.Chance(kRepeatShare)) {
      s.spec = static_cast<std::size_t>(rng.Below(specs.size()));
    } else {
      s.spec = specs.size();
      specs.push_back(UniqueSpec(opts.seed, static_cast<std::int64_t>(s.spec)));
      bodies.push_back(specs.back().ToJson());
      first_sub.push_back(subs.size());
    }
    subs.push_back(s);
  }

  TraceContext* tc = trace != nullptr ? &trace->ctx : nullptr;
  Span loadgen = TraceContext::OpenIf(tc, "loadgen");
  std::vector<std::size_t> pending;
  std::size_t next = 0;
  double service_free_ms = 0.0;  // when the last service call returned
  double scale = SpeedReference::kReferenceMs / speed.MeasureMs();
  double scale_ms = 0.0;  // when `scale` was measured
  const auto w0 = Clock::now();
  while (next < subs.size() || !pending.empty()) {
    const double now = MsSince(w0);
    if (next < subs.size() && subs[next].due_ms <= now) {
      Submission& s = subs[next];
      // Odd submissions are traced; the even ones are the untraced
      // baseline for obs.trace_overhead_frac.
      Span post = next % 2 == 1 ? TraceContext::OpenIf(tc, "serve.POST /runs")
                                : Span();
      s.sent_ms = now;
      s.scale = scale;
      s.late_ms = now - std::max(s.due_ms, service_free_ms);
      Submit(port, bodies[s.spec], s);
      s.acked_ms = MsSince(w0);
      service_free_ms = s.acked_ms;
      post.Close();
      if (s.accepted) pending.push_back(next);
      ++next;
      continue;
    }
    if (now > subs.back().due_ms + kDrainTimeoutMs) break;
    for (std::size_t k = 0; k < pending.size();) {
      Submission& s = subs[pending[k]];
      RunRecord rec;
      const bool found = scheduler.Get(s.id, &rec);
      const double t = MsSince(w0);
      service_free_ms = t;
      if (found && rec.state == RunState::kRunning && s.running_ms < 0.0) {
        s.running_ms = t;
      }
      if (found && Finished(rec.state)) {
        s.done_ms = t;
        s.state = rec.state;
        if (!s.deduped && rec.has_result) s.moves = rec.result.route.moves;
        if (rec.state == RunState::kFailed) s.error = rec.error;
        pending[k] = pending.back();
        pending.pop_back();
      } else {
        ++k;
      }
    }
    // Re-measure the host speed in the generator's slack, never within
    // reach of the next due time.
    const double slack_ms =
        next < subs.size() ? subs[next].due_ms - MsSince(w0) : kPollMs;
    if (MsSince(w0) - scale_ms > kSpeedEveryMs &&
        slack_ms > 3.0 * SpeedReference::kReferenceMs) {
      scale = SpeedReference::kReferenceMs / speed.MeasureMs();
      scale_ms = MsSince(w0);
      rep.Sample("speed.scale", "x", scale);
    }
    const double wait_ms =
        next < subs.size()
            ? std::min(kPollMs, subs[next].due_ms - MsSince(w0))
            : kPollMs;
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
  }
  loadgen.Close();

  std::vector<double> late_ms;
  std::vector<double> http_ms;
  std::vector<double> latency_ms;
  std::vector<double> traced_latency_ms;
  std::vector<double> untraced_latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms(specs.size(), -1.0);
  std::vector<double> exec_observed;
  double last_done_ms = 0.0;
  std::int64_t done = 0;
  std::int64_t slo_misses = 0;
  for (std::size_t i = 0; i < subs.size(); ++i) {
    const Submission& s = subs[i];
    const bool ok = s.accepted && s.state == RunState::kDone;
    rep.Attempt(ok, "submission " + std::to_string(i) + ": " +
                        (s.error.empty() ? RunStateName(s.state) : s.error));
    if (s.sent_ms >= 0.0) {
      late_ms.push_back(s.late_ms);
      http_ms.push_back(s.acked_ms - s.sent_ms);
    }
    const double latency = s.done_ms - s.due_ms;
    if (!ok || latency > kSloMs) ++slo_misses;
    if (!ok) continue;
    ++done;
    last_done_ms = std::max(last_done_ms, s.done_ms);
    latency_ms.push_back(latency);
    rep.Sample("run_ms_p50", "ms", latency * s.scale);
    (i % 2 == 1 ? traced_latency_ms : untraced_latency_ms).push_back(latency);
    if (!s.deduped && s.running_ms >= 0.0) {
      queue_ms.push_back(s.running_ms - s.acked_ms);
      exec_ms[s.spec] = s.done_ms - s.running_ms;
      exec_observed.push_back(exec_ms[s.spec]);
      rep.Sample("moves_per_s", "1/s",
                 static_cast<double>(s.moves) * 1000.0 /
                     (exec_ms[s.spec] * s.scale));
    }
  }

  const double late_p90 = Quantile(late_ms, 0.9);
  if (late_p90 > kMaxLateP90Ms) {
    std::fprintf(stderr,
                 "serve_mixed: invalid run: the load generator ran %.2f ms "
                 "late at p90 (limit %.1f ms)\n",
                 late_p90, kMaxLateP90Ms);
    return 3;
  }

  // Correctness beyond "done": the service's delivery hash for each of the
  // first unique specs must equal a direct RunOpenLoop of the same spec.
  // The direct runs also give the sim digest and sim_steps_per_D; they run
  // whether or not the window reached the spec, so both depend on the seed
  // alone.
  ThreadPool serial(0);
  std::vector<double> overhead_ms;
  double steps_per_d = 0.0;
  for (std::size_t u = 0; u < kVerifySpecs; ++u) {
    const RunSpec spec = UniqueSpec(opts.seed, static_cast<std::int64_t>(u));
    const auto t0 = Clock::now();
    const Topology topo(spec.d, spec.n,
                        spec.torus ? Wrap::kTorus : Wrap::kMesh);
    (void)topo.BuildCoordTable();
    rep.Sample("meshsim.topology_build_ms", "ms", MsSince(t0));
    const TrafficPattern pattern(topo, spec.pattern, spec.pattern_seed,
                                 spec.pattern_opts);
    EngineOptions eo = spec.MakeEngineOptions();
    eo.pool = &serial;
    const auto t1 = Clock::now();
    const WorkloadResult r = RunOpenLoop(topo, pattern, spec.driver, eo);
    const double direct_ms = MsSince(t1);
    rep.Digest(r.delivery_hash);
    rep.Digest(static_cast<std::uint64_t>(r.route.steps));
    rep.Digest(static_cast<std::uint64_t>(r.route.moves));
    steps_per_d += static_cast<double>(r.route.steps) /
                   static_cast<double>(topo.Diameter());

    RunRecord rec;
    if (u >= specs.size() || !scheduler.Get(subs[first_sub[u]].id, &rec) ||
        rec.state != RunState::kDone) {
      continue;  // not submitted, or already counted as a failed submission
    }
    rep.Attempt(r.delivery_hash == rec.delivery_hash,
                "spec " + std::to_string(u) +
                    ": service delivery_hash differs from RunOpenLoop");
    if (exec_ms[u] >= 0.0) overhead_ms.push_back(exec_ms[u] - direct_ms);
  }

  const HttpResult scrape = HttpFetch(port, "GET", "/metrics");
  const double submitted = PromValue(scrape.body, "mdmesh_serve_submitted");

  if (trace != nullptr) {
    std::vector<double> save_ms;
    double plain_ms = 0.0;
    double journey_ms = 0.0;
    const std::size_t probes = std::min(kProbeSpecs, specs.size());
    for (std::size_t u = 0; u < probes; ++u) {
      ProbeLayers(specs[u], opts.work_dir + "/ckpt-probe-" + std::to_string(u),
                  serial, rep, &save_ms, &plain_ms, &journey_ms);
    }
    rep.Set("ckpt.save_ms_p50", "ms", Quantile(save_ms, 0.5));
    rep.Set("ckpt.save_ms_p99", "ms", Quantile(save_ms, 0.99));
    rep.Set("obs.journey_overhead_frac", "frac", journey_ms / plain_ms - 1.0);
    rep.Set("obs.trace_overhead_frac", "frac",
            Median(traced_latency_ms) / Median(untraced_latency_ms) - 1.0);
  }
  service.reset();

  rep.Set("serve.submit_done_ms_p99", "ms", Quantile(latency_ms, 0.99));
  rep.Set("serve.runs_per_s", "1/s",
          static_cast<double>(done) * 1000.0 / last_done_ms);
  rep.Set("sim_steps_per_D", "steps/D",
          steps_per_d / static_cast<double>(kVerifySpecs));
  rep.Set("loadgen.late_ms_p90", "ms", late_p90);
  rep.Set("loadgen.late_ms_p99", "ms", Quantile(late_ms, 0.99));
  rep.Set("serve.http_submit_ms_p50", "ms", Quantile(http_ms, 0.5));
  rep.Set("serve.http_submit_ms_p99", "ms", Quantile(http_ms, 0.99));
  rep.Set("serve.queue_wait_ms_p50", "ms", Quantile(queue_ms, 0.5));
  rep.Set("serve.queue_wait_ms_p99", "ms", Quantile(queue_ms, 0.99));
  rep.Set("serve.exec_ms_p50", "ms", Quantile(exec_observed, 0.5));
  rep.Set("serve.exec_ms_p99", "ms", Quantile(exec_observed, 0.99));
  rep.Set("serve.overhead_ms_p50", "ms", Quantile(overhead_ms, 0.5));
  rep.Set("serve.slo_miss_frac", "frac",
          static_cast<double>(slo_misses) / static_cast<double>(subs.size()));
  rep.Set("serve.dedup_frac", "frac",
          submitted > 0.0
              ? PromValue(scrape.body, "mdmesh_serve_deduped") / submitted
              : 0.0);
  rep.Set("serve.evicted", "count",
          PromValue(scrape.body, "mdmesh_serve_evicted"));
  rep.Set("serve.rejected", "count",
          PromValue(scrape.body, "mdmesh_serve_rejected"));
  return 0;
}

}  // namespace mdmesh::bench
