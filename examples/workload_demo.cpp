// workload_demo: drive a mesh with open-loop traffic and watch it saturate.
// Picks a traffic pattern, injects Bernoulli arrivals at a chosen rate, and
// prints the accepted throughput, the latency quantiles, and the stability
// verdict; --saturate bisects for the saturation rate instead. Rates are
// given in per-mille so they stay integer flags:
//
//   $ ./workload_demo --d=3 --n=8 --pattern=uniform --rate-pm=100
//   $ ./workload_demo --d=2 --n=16 --pattern=bitrev --rate-pm=400
//   $ ./workload_demo --d=2 --n=16 --pattern=hotspot --saturate
//
// Live monitoring: --metrics-port serves Prometheus text at
// 127.0.0.1:PORT/metrics while the run executes (plus /status JSON),
// --status-file writes the same snapshot to disk on a cadence,
// --progress prints a stderr heartbeat, --flight-recorder arms the
// engine's black-box, and --perf adds hardware counters to the phase span:
//
//   $ ./workload_demo --n=32 --measure=50000 --metrics-port=9464 --progress
//
// Packet forensics: --journeys=FILE samples per-packet hop logs (see
// --journey-rate-pm/--journey-seed/--journey-watch) and writes them as
// JSONL, printing the p99 packet's latency decomposition and the
// critical-path bound gap; with --perfetto the traced packets also join
// the timeline as async spans:
//
//   $ ./workload_demo --n=16 --rate-pm=300 --journeys=j.jsonl --journey-rate-pm=1000
//
// Crash recovery: --checkpoint=DIR snapshots the full engine+injector state
// on a step cadence (and on ^C); --resume continues from the newest valid
// snapshot, reproducing the uninterrupted run's delivery trace exactly:
//
//   $ ./workload_demo --n=16 --checkpoint=ckpts --checkpoint-every=64
//   $ ./workload_demo --n=16 --checkpoint=ckpts --resume
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/mdmesh.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("workload_demo", "open-loop injection on a mesh or torus");
  cli.AddInt("d", 2, "dimension");
  cli.AddInt("n", 16, "side length");
  cli.AddBool("torus", false, "wraparound edges");
  cli.AddString("pattern", "uniform",
                "traffic pattern (uniform, bitrev, shuffle, butterfly, "
                "diagonal, transpose, reversal, hotspot)");
  cli.AddInt("rate-pm", 100, "injection rate per processor-step, per mille");
  cli.AddInt("warmup", 128, "warm-up steps (excluded from measurement)");
  cli.AddInt("measure", 512, "measurement-window steps");
  cli.AddBool("drain", false, "route the backlog out after the window");
  cli.AddInt("seed", 1, "seed for all traffic draws");
  cli.AddBool("saturate", false, "bisect for the saturation rate instead");
  cli.AddInt("server", 0,
             "submit to an experiment_server on this 127.0.0.1 port and "
             "wait for the result instead of running locally");
  cli.AddInt("priority", 0, "scheduling priority for --server submissions");
  AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const OutputFlags out = GetOutputFlags(cli);

  const MeshSpec spec{static_cast<int>(cli.GetInt("d")),
                      static_cast<int>(cli.GetInt("n")),
                      cli.GetBool("torus") ? Wrap::kTorus : Wrap::kMesh};
  const Topology topo = spec.Build();

  PatternKind kind;
  if (!ParsePattern(cli.GetString("pattern"), &kind)) {
    std::fprintf(stderr, "unknown pattern: %s\n",
                 cli.GetString("pattern").c_str());
    return 2;
  }
  TrafficPattern pattern(topo, kind,
                         static_cast<std::uint64_t>(cli.GetInt("seed")));

  DriverOptions dopts;
  dopts.rate = static_cast<double>(cli.GetInt("rate-pm")) / 1000.0;
  dopts.warmup_steps = cli.GetInt("warmup");
  dopts.measure_steps = cli.GetInt("measure");
  dopts.drain = cli.GetBool("drain");
  dopts.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  // --server: the bench becomes a client of the experiment service — the
  // same flags build a RunSpec, the server executes it (deduping against
  // identical submissions), and the printed delivery_hash is byte-identical
  // to a local run because results are scheduler-independent.
  const int server_port = static_cast<int>(cli.GetInt("server"));
  if (server_port > 0) {
    RunSpec rspec;
    rspec.d = spec.d;
    rspec.n = spec.n;
    rspec.torus = spec.wrap == Wrap::kTorus;
    rspec.pattern = kind;
    rspec.pattern_seed = dopts.seed;
    rspec.driver = dopts;
    rspec.priority = static_cast<int>(cli.GetInt("priority"));
    const HttpResult post =
        HttpFetch(server_port, "POST", "/runs", rspec.ToJson());
    if (!post.ok || post.status != 202) {
      std::fprintf(stderr, "submit failed: %s\n",
                   post.ok ? (std::to_string(post.status) + " " + post.body)
                               .c_str()
                           : post.error.c_str());
      return 1;
    }
    const JsonParseResult accepted = ParseJson(post.body);
    if (!accepted.ok) {
      std::fprintf(stderr, "submit failed: unparseable response\n");
      return 1;
    }
    const std::int64_t id = accepted.value["id"].AsInt();
    std::fprintf(stderr, "submitted as run %lld%s\n",
                 static_cast<long long>(id),
                 accepted.value["deduped"].AsBool() ? " (deduplicated)" : "");
    // Poll until the run leaves the queue/engine. Interrupted means the
    // server is draining; the restarted server will finish the run.
    for (;;) {
      const HttpResult poll =
          HttpFetch(server_port, "GET", "/runs/" + std::to_string(id));
      if (!poll.ok || poll.status != 200) {
        std::fprintf(stderr, "poll failed: %s\n",
                     poll.ok ? poll.body.c_str() : poll.error.c_str());
        return 1;
      }
      const JsonParseResult rec = ParseJson(poll.body);
      if (!rec.ok) {
        std::fprintf(stderr, "poll failed: unparseable record\n");
        return 1;
      }
      const std::string state = rec.value["state"].AsString();
      if (state == "done") {
        const JsonValue& result = rec.value["result"];
        std::printf("run %lld done on server :%d\n",
                    static_cast<long long>(id), server_port);
        std::printf("offered %lld, delivered %lld: %s\n",
                    static_cast<long long>(result["offered"].AsInt()),
                    static_cast<long long>(result["delivered"].AsInt()),
                    result["stable"].AsBool()
                        ? "stable"
                        : "SATURATED (backlog growing)");
        std::printf("throughput %.3f accepted/processor-step\n",
                    result["throughput"].AsDouble());
        std::printf("delivery_hash: %016llx\n",
                    static_cast<unsigned long long>(
                        rec.value["delivery_hash"].AsUInt()));
        return 0;
      }
      if (state == "failed") {
        std::fprintf(stderr, "run %lld failed: %s\n",
                     static_cast<long long>(id),
                     rec.value["error"].AsString().c_str());
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  if (cli.GetBool("saturate")) {
    const SaturationResult sat = FindSaturationRate(topo, pattern, dopts);
    std::printf("%s, pattern %s: saturation between %.4f and %.4f\n",
                spec.ToString().c_str(), pattern.name(), sat.rate,
                sat.unstable_rate);
    Table table({"rate", "throughput", "p99", "stable"});
    for (const WorkloadResult& probe : sat.probes) {
      table.Row()
          .Cell(probe.driver.rate, 4)
          .Cell(probe.throughput, 3)
          .Cell(probe.latency_p99, 1)
          .Cell(probe.stable ? "yes" : "NO");
    }
    table.Print();
    return 0;
  }

  // With --perfetto, instrument the run: a phase span, the congestion
  // probe, the metrics registry, and thread-pool activity all feed one
  // Chrome-trace timeline. Instrumentation never changes the routing.
  TraceContext ctx;
  CongestionTrace trace;
  MetricsRegistry metrics;
  ThreadPoolActivity activity;
  EngineOptions eopts;
  if (out.WantsPerfetto()) {
    eopts.probes.push_back(&trace);
    ThreadPool::Global().set_activity(&activity);
  }
  if (out.WantsPerfetto() || out.WantsPublisher()) eopts.metrics = &metrics;
  if (out.perf && !ctx.EnablePerfCounters()) {
    std::fprintf(stderr, "--perf: %s\n", ctx.perf_error().c_str());
  }

  // Packet forensics: --journeys arms the deterministic journey sampler.
  // Traces are byte-identical across thread counts, so the
  // JSONL artifact is a stable forensic record of who waited where and why.
  JourneyTracer journeys(JourneyOptionsFromFlags(out));
  if (out.WantsJourneys()) eopts.journeys = &journeys;

  // Black box: --flight-recorder arms the constant-memory step ring and the
  // SIGINT/SIGTERM dump, so even a ^C'd run leaves a forensic artifact.
  FlightRecorder recorder;
  if (out.WantsFlightRecorder()) {
    recorder.set_dump_path(out.flight_recorder);
    FlightRecorder::InstallSignalHandlers();
    eopts.recorder = &recorder;
  }

  // Checkpointing: --checkpoint arms the keep-K store (and the signal
  // handlers, so ^C leaves a resumable snapshot next to any recorder dump);
  // --resume restarts from the newest generation that survives CRC and
  // options-hash validation, falling back past corrupt files.
  CheckpointOptions copts;
  std::unique_ptr<CheckpointManager> ckpt;
  EngineCheckpointState resume_state;
  bool resuming = false;
  if (out.WantsCheckpoint()) {
    copts.dir = out.checkpoint;
    copts.every_steps = out.checkpoint_every > 0 ? out.checkpoint_every : 64;
    copts.keep = static_cast<int>(out.checkpoint_keep);
    if (out.WantsPerfetto() || out.WantsPublisher()) copts.metrics = &metrics;
    ckpt = std::make_unique<CheckpointManager>(copts);
    FlightRecorder::InstallSignalHandlers();
    eopts.checkpoint = ckpt.get();
  }
  if (out.resume) {
    if (!out.WantsCheckpoint()) {
      std::fprintf(stderr, "--resume requires --checkpoint=DIR\n");
      return 2;
    }
    std::string loaded_path;
    std::string log;
    const CkptStatus status = CheckpointManager::LoadNewestValid(
        copts.dir, &resume_state, /*expected_options_hash=*/nullptr,
        &loaded_path, &log);
    if (!log.empty()) std::fprintf(stderr, "[ckpt] skipped:\n%s", log.c_str());
    if (status != CkptStatus::kOk) {
      std::fprintf(stderr, "--resume: no valid checkpoint in %s (%s)\n",
                   copts.dir.c_str(), CkptStatusName(status));
      return 1;
    }
    std::fprintf(stderr, "[ckpt] resuming from %s (step %lld)\n",
                 loaded_path.c_str(),
                 static_cast<long long>(resume_state.step));
    resuming = true;
  }

  // Live telemetry: the engine folds its totals into the registry only at
  // the end of Route, so a probe keeps per-step gauges fresh for mid-run
  // scrapes; the stderr heartbeat is a probe too.
  struct LiveGauges final : StepProbe {
    // Registered up front, so the very first scrape of the endpoint already
    // sees them (at zero) rather than a missing family.
    explicit LiveGauges(MetricsRegistry& m)
        : step(m.gauge("engine.live.step")),
          in_flight(m.gauge("engine.live.in_flight")),
          arrivals(m.counter("engine.live.arrivals")) {}
    void OnStep(const StepSnapshot& snap) override {
      step.Set(snap.step);
      in_flight.Set(snap.in_flight);
      arrivals.Add(snap.arrivals);
    }
    MetricsRegistry::Gauge& step;
    MetricsRegistry::Gauge& in_flight;
    MetricsRegistry::Counter& arrivals;
  };
  ProgressMeter meter(/*step_cap=*/0, /*interval_ms=*/500, out.progress);
  std::unique_ptr<LiveGauges> live;
  if (out.progress || out.WantsPublisher()) {
    if (eopts.metrics != nullptr) {
      live = std::make_unique<LiveGauges>(*eopts.metrics);
      eopts.probes.push_back(live.get());
    }
    eopts.probes.push_back(&meter);
  }

  RunManifest pub_manifest = MakeRunManifest(topo, eopts);
  pub_manifest.seed = dopts.seed;
  pub_manifest.binary = "workload_demo";
  MetricsPublisher publisher;
  if (out.WantsPublisher()) {
    MetricsPublisher::Options popts;
    popts.registry = &metrics;
    popts.port = static_cast<int>(out.metrics_port);
    popts.status_file = out.status_file;
    popts.manifest = &pub_manifest;
    if (!publisher.Start(popts)) {
      std::fprintf(stderr, "failed to start the metrics publisher\n");
      return 1;
    }
    if (publisher.port() > 0) {
      std::fprintf(stderr, "serving http://127.0.0.1:%d/metrics\n",
                   publisher.port());
    }
  }

  WorkloadResult r;
  {
    Span span = TraceContext::OpenIf(
        out.WantsPerfetto() || out.perf ? &ctx : nullptr,
        std::string("open_loop_") + pattern.name());
    try {
      r = RunOpenLoop(topo, pattern, dopts, eopts,
                      resuming ? &resume_state : nullptr);
    } catch (const std::invalid_argument& e) {
      // Engine::Resume refuses a checkpoint from a different configuration
      // (topology shape, engine options, injector presence) — resuming it
      // silently would produce a trace matching neither run.
      std::fprintf(stderr, "--resume: %s\n", e.what());
      return 1;
    }
    r.route.RecordTo(span);
  }
  publisher.Stop();
  meter.Finish();
  if (out.WantsPerfetto()) {
    ThreadPool::Global().set_activity(nullptr);
    RunManifest manifest = MakeRunManifest(topo, eopts);
    manifest.seed = dopts.seed;
    manifest.binary = "workload_demo";
    ChromeTraceWriter writer(manifest);
    writer.AddSpanTree(ctx);
    writer.AddCounters(trace);
    writer.AddWorkerActivity(activity);
    if (r.route.journeys != nullptr) {
      // Traced packets join the timeline as async spans (pid "packet
      // journeys"), so a slow packet can be eyeballed against the
      // congestion counters it flew through.
      ExportJourneysToChromeTrace(*r.route.journeys, topo.dim(), &writer);
    }
    writer.WriteFile(out.perfetto);
  }
  if (out.perf && ctx.perf_enabled() && ctx.nodes().size() > 1) {
    const PerfSample& p = ctx.nodes()[1].perf;
    std::printf("perf: cycles %lld  instructions %lld  ipc %.2f  "
                "cache-misses %lld  branch-misses %lld\n",
                static_cast<long long>(p.cycles),
                static_cast<long long>(p.instructions), p.ipc(),
                static_cast<long long>(p.cache_misses),
                static_cast<long long>(p.branch_misses));
  }
  std::printf("%s, pattern %s, rate %.3f over %lld+%lld steps%s\n",
              spec.ToString().c_str(), pattern.name(), dopts.rate,
              static_cast<long long>(dopts.warmup_steps),
              static_cast<long long>(dopts.measure_steps),
              dopts.drain ? " (drained)" : "");
  std::printf("offered %lld, delivered %lld, backlog %lld -> %lld: %s\n",
              static_cast<long long>(r.offered),
              static_cast<long long>(r.delivered),
              static_cast<long long>(r.backlog_start),
              static_cast<long long>(r.backlog_end),
              r.stable ? "stable" : "SATURATED (backlog growing)");
  std::printf("throughput %.3f accepted/processor-step\n", r.throughput);
  std::printf("latency (n=%lld): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  "
              "max %lld\n",
              static_cast<long long>(r.latency_count), r.latency_mean,
              r.latency_p50, r.latency_p95, r.latency_p99,
              static_cast<long long>(r.latency_max));
  std::printf("engine: %lld steps, %lld moves, peak %lld active procs\n",
              static_cast<long long>(r.route.steps),
              static_cast<long long>(r.route.moves),
              static_cast<long long>(r.route.peak_active_procs));
  // The delivery hash fingerprints the full delivery trace; the crash drill
  // compares it between an interrupted+resumed run and a clean one.
  std::printf("delivery_hash: %016llx\n",
              static_cast<unsigned long long>(r.delivery_hash));
  if (out.WantsJourneys() && r.route.journeys != nullptr) {
    std::ofstream jf = OpenOutputFile(out.journeys, "--journeys");
    WriteJourneysJsonl(*r.route.journeys, topo.dim(), jf);
    std::printf("journeys: %lld traced packet(s), %lld event(s) -> %s\n",
                static_cast<long long>(r.route.journeys->traced_packets),
                static_cast<long long>(r.route.journeys->events.size()),
                out.journeys.c_str());
    const CriticalPathReport* cp = r.route.critical_path.get();
    if (cp != nullptr && cp->have_p99) {
      // The "why" behind the p99 above: how much of that packet's latency
      // was distance and how much was contention or fault holds.
      std::printf("p99 why: packet %lld latency %lld = %lld move(s) + "
                  "%lld lost-bid wait(s) + %lld dead-link wait(s)\n",
                  static_cast<long long>(cp->p99.id),
                  static_cast<long long>(cp->p99.latency()),
                  static_cast<long long>(cp->p99.moves),
                  static_cast<long long>(cp->p99.waits_lost_bid),
                  static_cast<long long>(cp->p99.waits_links_dead));
    }
    if (cp != nullptr && cp->have_last) {
      std::printf("critical path: packet %lld delivered at step %lld%s "
                  "(bound gap %lld over lower bound %lld)\n",
                  static_cast<long long>(cp->last.id),
                  static_cast<long long>(cp->last.delivery_step),
                  cp->critical_traced ? "" : " [not the run's last packet]",
                  static_cast<long long>(cp->bound_gap),
                  static_cast<long long>(cp->lower_bound));
    }
  }
  if (ckpt != nullptr && ckpt->saves() > 0) {
    std::fprintf(stderr, "[ckpt] %lld checkpoint(s) in %s (last: %s)\n",
                 static_cast<long long>(ckpt->saves()), copts.dir.c_str(),
                 ckpt->last_path().c_str());
  }

  if (out.WantsJson()) {
    BenchJson json("workload_demo");
    std::ostringstream os;
    JsonWriter w(os);
    r.WriteJson(w);
    json.AddRaw(os.str());
    json.WriteFile(out.json);
  }
  return 0;
}
