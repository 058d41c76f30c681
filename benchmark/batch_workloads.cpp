// The four batch workloads: closed loop, one caller, each run starts when
// the previous one ends. Inputs are generated untimed from the workload
// seed; only the call into the layer under test is timed.
//
//   route_perm    RouteTwoPhase (Section 5, g = 4), 3D mesh n = 32, random
//                 permutation; traced runs repeat it on a 2-worker pool
//   sort_simple   RunSort(kSimple) (Theorem 3.1), 2D mesh n = 128, k = 1
//   drain_sparse  N/64 random packets, 3D mesh n = 64 (tiled under kAuto);
//                 Engine construction plus Route
//   open_loop     RunOpenLoop, uniform traffic at rate 0.08, 3D mesh n = 16,
//                 warmup 128, measure 384, drain
//
// Every workload uses default EngineOptions (kAuto sparse mode and layout)
// plus an explicit ThreadPool, so MDMESH_THREADS cannot leak in.
#include <functional>

#include "bench_common.h"
#include "meshsim/blocks.h"
#include "routing/permutations.h"
#include "routing/two_phase.h"
#include "sorting/kk_sort.h"
#include "sorting/verify.h"
#include "util/rng.h"
#include "workload/patterns.h"

namespace mdmesh::bench {
namespace {

/// Runs whose simulated results feed sim_steps_per_D and the sim digest.
/// Every workload completes them whatever the window, so both are fixed
/// functions of the seed.
constexpr std::int64_t kDigestRuns = 20;

struct RunOutcome {
  double ms = 0.0;           ///< host time of the timed part
  std::int64_t moves = 0;    ///< packet-moves simulated
  double steps_per_d = 0.0;  ///< simulated steps / network diameter
  std::vector<std::uint64_t> sim;  ///< simulated results for the digest
  bool ok = false;                 ///< passed verification
  std::string error;
};

/// Builds the fixture kSetupReps times, each build followed by one untimed
/// warm-up run (setup_s is the median), then runs closed-loop until the
/// window closes. With a trace, odd runs are traced: `run` then opens a
/// "run" span around its timed part and samples per-layer metrics, and the
/// even runs give the untraced baseline for obs.trace_overhead_frac.
template <typename Fixture>
void RunClosedLoop(
    const BenchOptions& opts, Report& rep, TraceRecord* trace,
    const std::function<std::unique_ptr<Fixture>()>& make,
    const std::function<RunOutcome(Fixture&, std::int64_t, TraceContext*)>&
        run) {
  // Every timed part sits between two SpeedReference measurements and is
  // scaled by their mean.
  SpeedReference speed;
  double ref_ms = speed.MeasureMs();
  const auto scale_since = [&] {
    const double next_ms = speed.MeasureMs();
    const double scale =
        2.0 * SpeedReference::kReferenceMs / (ref_ms + next_ms);
    ref_ms = next_ms;
    return scale;
  };
  std::unique_ptr<Fixture> fx;
  for (int r = 0; r < kSetupReps; ++r) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = make();
    const RunOutcome warm = run(*fx, -1 - r, nullptr);
    const double ms = MsSince(t0);
    rep.Sample("setup_s", "s", ms * scale_since() / 1000.0);
    rep.Attempt(warm.ok, "warm-up: " + warm.error);
  }
  if (trace != nullptr) {
    EngineOptions eo;
    eo.pool = &fx->pool;
    RunManifest manifest = MakeRunManifest(fx->topo, eo);
    manifest.seed = trace->manifest.seed;
    manifest.binary = trace->manifest.binary;
    trace->manifest = manifest;
  }

  const std::int64_t digest_runs = opts.smoke ? 2 : kDigestRuns;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double steps_per_d = 0.0;
  Span all = trace != nullptr ? trace->ctx.Open(opts.workload) : Span();
  const auto t0 = Clock::now();
  for (std::int64_t i = 0;
       i < digest_runs || MsSince(t0) < opts.seconds * 1000.0; ++i) {
    const bool traced = trace != nullptr && i % 2 == 1;
    const RunOutcome out = run(*fx, i, traced ? &trace->ctx : nullptr);
    const double scale = scale_since();
    rep.Attempt(out.ok, "run " + std::to_string(i) + ": " + out.error);
    if (i < digest_runs) {
      steps_per_d += out.steps_per_d;
      for (std::uint64_t v : out.sim) rep.Digest(v);
    }
    if (traced) {
      traced_ms.push_back(out.ms);
      continue;
    }
    untraced_ms.push_back(out.ms);
    rep.Sample("speed.scale", "x", scale);
    rep.Sample("run_ms_p50", "ms", out.ms * scale);
    rep.Sample("moves_per_s", "1/s",
               static_cast<double>(out.moves) * 1000.0 / (out.ms * scale));
  }
  all.Close();

  rep.Set("sim_steps_per_D", "steps/D",
          steps_per_d / static_cast<double>(digest_runs));
  if (trace != nullptr) {
    rep.Set("obs.trace_overhead_frac", "frac",
            Median(traced_ms) / Median(untraced_ms) - 1.0);
  }
}

double AsDouble(std::int64_t v) { return static_cast<double>(v); }

/// net.* counters and gauges the engine folded into `reg` during one run.
void SampleEngineCounters(MetricsRegistry& reg, Report& rep) {
  const double steps = AsDouble(reg.counter("engine.steps").Total());
  rep.Sample("net.steps", "steps", steps);
  rep.Sample("net.moves", "count",
             AsDouble(reg.counter("engine.moves").Total()));
  rep.Sample("net.sparse_step_frac", "frac",
             steps > 0 ? AsDouble(reg.counter("engine.sparse_steps").Total()) /
                             steps
                       : 0.0);
  rep.Sample("net.peak_active_procs", "count",
             AsDouble(reg.gauge("engine.peak_active_procs").Value()));
  rep.Sample("net.tiles_peak", "count",
             AsDouble(reg.gauge("engine.tiles_peak").Value()));
  rep.Sample("net.halo_bytes", "bytes",
             AsDouble(reg.counter("engine.halo_bytes").Total()));
  rep.Sample("net.max_queue", "count",
             AsDouble(reg.gauge("engine.max_queue").Value()));
}

/// Time inside Engine::Route and its per-move / per-step cost.
void SampleRouteTime(double route_ms, std::int64_t moves, std::int64_t steps,
                     Report& rep) {
  rep.Sample("net.route_self_ms", "ms", route_ms);
  if (moves > 0) {
    rep.Sample("net.ns_per_move", "ns", route_ms * 1e6 / AsDouble(moves));
  }
  if (steps > 0) {
    rep.Sample("net.ns_per_step", "ns", route_ms * 1e6 / AsDouble(steps));
  }
}

struct PoolCounts {
  std::int64_t dispatches = 0;
  std::int64_t items = 0;
};

PoolCounts ReadPool(const ThreadPool& pool) {
  return {pool.dispatches(), pool.items_dispatched()};
}

void SamplePool(const ThreadPool& pool, PoolCounts before, Report& rep) {
  const PoolCounts after = ReadPool(pool);
  const double dispatches = AsDouble(after.dispatches - before.dispatches);
  rep.Sample("pool.dispatches", "count", dispatches);
  if (dispatches > 0) {
    rep.Sample("pool.items_per_dispatch", "count",
               AsDouble(after.items - before.items) / dispatches);
  }
}

/// Times one standalone Engine construction on the workload's topology and
/// options: the share of a run that builds engine tables, for the workloads
/// that construct their engines inside a library call.
void SampleEngineCtor(const Topology& topo, const EngineOptions& eopts,
                      Report& rep) {
  const auto t0 = Clock::now();
  { Engine engine(topo, eopts); }
  rep.Sample("net.engine_ctor_ms", "ms", MsSince(t0));
}

/// Topology plus the O(N) tables meshsim builds for the layer above it.
Topology BuildTopology(int d, int n, int g, Report& rep) {
  const auto t0 = Clock::now();
  Topology topo(d, n, Wrap::kMesh);
  if (g > 0) {
    BlockGrid grid(topo, g);
  } else {
    (void)topo.BuildCoordTable();
  }
  rep.Sample("meshsim.topology_build_ms", "ms", MsSince(t0));
  return topo;
}

// ---------------------------------------------------------------------------
// route_perm

struct RoutePermFixture {
  explicit RoutePermFixture(const Topology& t) : topo(t) {}
  Topology topo;
  ThreadPool pool{0};
  // The traced runs repeat each input on 2 workers (3 threads with the
  // caller) for the pool.* metrics. Timed runs stay serial: on the 4-vCPU
  // development host the 2-worker time flipped between 1.0x and 1.5x the
  // serial time as the host's wake-up latency for idle vCPUs changed, a
  // 33% swing between sets no speed reference can remove.
  ThreadPool pool2{2};
};

RunOutcome RoutePermRun(const BenchOptions& opts, Report& rep,
                        TraceRecord* trace, RoutePermFixture& fx,
                        std::int64_t i, TraceContext* tc) {
  Rng rng(RunSeed(opts.seed, i));
  const std::vector<ProcId> dest = RandomPermutation(fx.topo, rng);
  TwoPhaseOptions o;
  o.g = 4;
  o.engine.pool = &fx.pool;
  MetricsRegistry reg;
  if (tc != nullptr) {
    o.trace = tc;
    o.engine.metrics = &reg;
  }

  Span span = TraceContext::OpenIf(tc, "run");
  const std::size_t node = tc != nullptr ? tc->nodes().size() - 1 : 0;
  const auto t0 = Clock::now();
  const TwoPhaseResult r = RouteTwoPhase(fx.topo, dest, o);
  RunOutcome out;
  out.ms = MsSince(t0);
  span.Close();

  const std::int64_t D = fx.topo.Diameter();
  out.ok = r.delivered;
  if (!out.ok) out.error = "RouteTwoPhase did not deliver every packet";
  out.moves = r.phase1.moves + r.phase2.moves;
  out.steps_per_d = r.steps_over_diameter(D);
  out.sim = {static_cast<std::uint64_t>(r.phase1.steps),
             static_cast<std::uint64_t>(r.phase2.steps),
             static_cast<std::uint64_t>(out.moves),
             static_cast<std::uint64_t>(r.max_queue)};
  if (tc == nullptr) return out;

  rep.Sample("routing.assign_midpoints_ms", "ms",
             DescendantMs(*tc, node, "assign_midpoints"));
  SampleRouteTime(DescendantMs(*tc, node, "phase_a_route") +
                      DescendantMs(*tc, node, "phase_b_route"),
                  out.moves, r.total_steps, rep);
  SampleEngineCounters(reg, rep);
  EngineOptions plain;
  plain.pool = &fx.pool;
  SampleEngineCtor(fx.topo, plain, rep);

  // The same input on 2 workers. The first such run's worker lanes go to
  // trace.json; later runs record into a per-run log that only feeds
  // pool.worker_busy_frac.
  ThreadPoolActivity per_run;
  ThreadPoolActivity* activity = &per_run;
  if (trace->pool_activity == nullptr) {
    trace->pool_activity = std::make_unique<ThreadPoolActivity>();
    activity = trace->pool_activity.get();
  }
  TwoPhaseOptions two = o;
  two.trace = nullptr;
  two.engine = EngineOptions{};
  two.engine.pool = &fx.pool2;
  const PoolCounts before = ReadPool(fx.pool2);
  fx.pool2.set_activity(activity);
  const auto t1 = Clock::now();
  (void)RouteTwoPhase(fx.topo, dest, two);
  const double two_ms = MsSince(t1);
  fx.pool2.set_activity(nullptr);
  double busy_ms = 0.0;  // lane 0 is the coordinator
  for (std::size_t lane = 1; lane < activity->lanes().size(); ++lane) {
    for (const ThreadPoolActivity::Interval& iv : activity->lanes()[lane]) {
      busy_ms += std::chrono::duration<double, std::milli>(iv.t1 - iv.t0)
                     .count();
    }
  }
  rep.Sample("pool.worker_busy_frac", "frac",
             busy_ms / (AsDouble(fx.pool2.workers()) * two_ms));
  rep.Sample("pool.speedup_2w", "x", out.ms / two_ms);
  SamplePool(fx.pool2, before, rep);
  return out;
}

// ---------------------------------------------------------------------------
// sort_simple

struct SortFixture {
  SortFixture(const Topology& t, int g) : topo(t), grid(topo, g), net(topo) {}
  Topology topo;
  BlockGrid grid;
  Network net;
  ThreadPool pool{0};
};

RunOutcome SortRun(const BenchOptions& opts, Report& rep, SortFixture& fx,
                   std::int64_t i, TraceContext* tc) {
  const std::uint64_t seed = RunSeed(opts.seed, i);
  FillInput(fx.net, fx.grid, 1, InputKind::kRandom, seed);
  SortOptions so;
  so.seed = seed;
  so.engine.pool = &fx.pool;
  MetricsRegistry reg;
  const PoolCounts before = ReadPool(fx.pool);
  if (tc != nullptr) {
    so.trace = tc;
    so.engine.metrics = &reg;
  }

  Span span = TraceContext::OpenIf(tc, "run");
  Span call = TraceContext::OpenIf(tc, "sorting.RunSort");
  const auto t0 = Clock::now();
  const SortResult r = RunSort(SortAlgo::kSimple, fx.net, fx.grid, so);
  RunOutcome out;
  out.ms = MsSince(t0);
  call.Close();
  span.Close();

  double route_ms = 0.0;
  double local_ms = 0.0;
  for (const PhaseStats& phase : r.phases) {
    out.moves += phase.moves;
    (phase.moves > 0 ? route_ms : local_ms) += phase.wall_ms;
  }
  out.ok = r.sorted && r.completed;
  if (!out.ok) out.error = "RunSort output failed verification";
  out.steps_per_d = r.RatioToDiameter(fx.topo.Diameter());
  out.sim = {static_cast<std::uint64_t>(r.routing_steps),
             static_cast<std::uint64_t>(r.local_steps),
             static_cast<std::uint64_t>(r.fixup_rounds),
             static_cast<std::uint64_t>(out.moves),
             static_cast<std::uint64_t>(r.max_queue)};
  if (tc == nullptr) return out;

  rep.Sample("sorting.local_ms", "ms", local_ms);
  rep.Sample("sorting.route_ms", "ms", route_ms);
  rep.Sample("sorting.other_ms", "ms", out.ms - local_ms - route_ms);
  rep.Sample("sorting.fixup_rounds", "count", AsDouble(r.fixup_rounds));
  SampleRouteTime(route_ms, out.moves, r.routing_steps, rep);
  SampleEngineCounters(reg, rep);
  SamplePool(fx.pool, before, rep);
  EngineOptions plain;
  plain.pool = &fx.pool;
  SampleEngineCtor(fx.topo, plain, rep);
  return out;
}

// ---------------------------------------------------------------------------
// drain_sparse

struct DrainFixture {
  explicit DrainFixture(const Topology& t) : topo(t), net(topo) {}
  Topology topo;
  Network net;
  ThreadPool pool{0};
};

RunOutcome DrainRun(const BenchOptions& opts, Report& rep, DrainFixture& fx,
                    std::int64_t i, TraceContext* tc) {
  const std::int64_t N = fx.topo.size();
  const int d = fx.topo.dim();
  fx.net.Clear();
  Rng rng(RunSeed(opts.seed, i));
  for (std::int64_t j = 0; j < N / 64; ++j) {
    const auto src =
        static_cast<ProcId>(rng.Below(static_cast<std::uint64_t>(N)));
    Packet pkt;
    pkt.id = j;
    pkt.key = static_cast<std::uint64_t>(j);
    pkt.dest = static_cast<ProcId>(rng.Below(static_cast<std::uint64_t>(N)));
    pkt.klass = static_cast<std::uint16_t>(j % d);
    fx.net.Add(src, pkt);
  }
  EngineOptions eo;
  eo.pool = &fx.pool;
  MetricsRegistry reg;
  const PoolCounts before = ReadPool(fx.pool);
  if (tc != nullptr) eo.metrics = &reg;

  Span span = TraceContext::OpenIf(tc, "run");
  const auto t0 = Clock::now();
  Span ctor = TraceContext::OpenIf(tc, "net.Engine");
  Engine engine(fx.topo, eo);
  ctor.Close();
  const double ctor_ms = MsSince(t0);
  Span route = TraceContext::OpenIf(tc, "net.Route");
  const RouteResult r = engine.Route(fx.net);
  route.Close();
  RunOutcome out;
  out.ms = MsSince(t0);
  span.Close();

  out.ok = r.completed && VerifyAllDelivered(fx.net);
  if (!out.ok) out.error = "drain left packets undelivered";
  out.moves = r.moves;
  out.steps_per_d = AsDouble(r.steps) / AsDouble(fx.topo.Diameter());
  std::uint64_t arrivals = 14695981039346656037ull;
  fx.net.ForEach([&](ProcId p, const Packet& pkt) {
    for (std::int64_t v : {p, pkt.id, static_cast<std::int64_t>(pkt.arrived)}) {
      arrivals = (arrivals ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    }
  });
  out.sim = {static_cast<std::uint64_t>(r.steps),
             static_cast<std::uint64_t>(r.moves),
             static_cast<std::uint64_t>(r.max_queue), arrivals};
  if (tc == nullptr) return out;

  rep.Sample("net.engine_ctor_ms", "ms", ctor_ms);
  SampleRouteTime(out.ms - ctor_ms, r.moves, r.steps, rep);
  SampleEngineCounters(reg, rep);
  SamplePool(fx.pool, before, rep);
  return out;
}

// ---------------------------------------------------------------------------
// open_loop

/// Forwards to the wrapped injector and accumulates the time spent inside
/// each of its calls.
class TimingInjector final : public StepInjector {
 public:
  explicit TimingInjector(StepInjector& inner) : inner_(inner) {}

  InjectAction Inject(std::int64_t step,
                      std::vector<std::pair<ProcId, Packet>>* out) override {
    const auto t0 = Clock::now();
    const InjectAction action = inner_.Inject(step, out);
    inject_ms += MsSince(t0);
    return action;
  }
  void OnDeliver(const Packet& pkt, std::int64_t step) override {
    const auto t0 = Clock::now();
    inner_.OnDeliver(pkt, step);
    deliver_ms += MsSince(t0);
  }

  double inject_ms = 0.0;
  double deliver_ms = 0.0;

 private:
  StepInjector& inner_;
};

DriverOptions OpenLoopDriver(std::uint64_t seed) {
  DriverOptions d;
  d.rate = 0.08;
  d.warmup_steps = 128;
  d.measure_steps = 384;
  d.drain = true;
  d.seed = seed;
  return d;
}

struct OpenLoopFixture {
  explicit OpenLoopFixture(const Topology& t) : topo(t) {}
  Topology topo;
  ThreadPool pool{0};
};

RunOutcome OpenLoopRun(const BenchOptions& opts, Report& rep,
                       OpenLoopFixture& fx, std::int64_t i,
                       TraceContext* tc) {
  const std::uint64_t seed = RunSeed(opts.seed, i);
  const TrafficPattern pattern(fx.topo, PatternKind::kUniform, seed);
  const DriverOptions dopts = OpenLoopDriver(seed);
  EngineOptions eo;
  eo.pool = &fx.pool;
  MetricsRegistry reg;
  const PoolCounts before = ReadPool(fx.pool);

  RunOutcome out;
  WorkloadResult r;
  if (tc == nullptr) {
    const auto t0 = Clock::now();
    r = RunOpenLoop(fx.topo, pattern, dopts, eo);
    out.ms = MsSince(t0);
  } else {
    eo.metrics = &reg;
    Span span = tc->Open("run");
    const auto t0 = Clock::now();
    const TimedOpenLoop timed =
        RunOpenLoopTimed(fx.topo, pattern, dopts, eo, tc);
    out.ms = MsSince(t0);
    span.Close();
    SampleOpenLoopLayers(timed, reg, rep);
    SamplePool(fx.pool, before, rep);
    r = timed.result;
  }

  out.ok = r.route.completed && r.offered == r.delivered && r.stable;
  if (!out.ok) out.error = "open loop did not drain stably";
  out.moves = r.route.moves;
  out.steps_per_d = AsDouble(r.route.steps) / AsDouble(fx.topo.Diameter());
  out.sim = {r.delivery_hash, static_cast<std::uint64_t>(r.route.steps),
             static_cast<std::uint64_t>(r.route.moves)};
  return out;
}

}  // namespace

TimedOpenLoop RunOpenLoopTimed(const Topology& topo,
                               const TrafficPattern& pattern,
                               const DriverOptions& dopts,
                               const EngineOptions& eopts,
                               TraceContext* trace) {
  OpenLoopInjector injector(topo, pattern, dopts);
  TimingInjector timing(injector);
  EngineOptions opts = eopts;
  opts.injector = &timing;
  TimedOpenLoop out;
  const auto t0 = Clock::now();
  Span ctor = TraceContext::OpenIf(trace, "net.Engine");
  Engine engine(topo, opts);
  ctor.Close();
  out.ctor_ms = MsSince(t0);
  Network net(topo);
  const auto t1 = Clock::now();
  Span route = TraceContext::OpenIf(trace, "net.Route");
  out.result.route = engine.Route(net);
  route.Close();
  out.route_ms = MsSince(t1);
  out.inject_ms = timing.inject_ms;
  out.deliver_ms = timing.deliver_ms;
  out.result.offered = injector.offered();
  out.result.delivered = injector.delivered();
  out.result.stable = injector.Stable();
  out.result.latency_p99 = injector.latency().Quantile(0.99);
  out.result.delivery_hash = injector.delivery_hash();
  return out;
}

void SampleOpenLoopLayers(const TimedOpenLoop& run, MetricsRegistry& reg,
                          Report& rep) {
  const RouteResult& route = run.result.route;
  const double engine_ms = run.route_ms - run.inject_ms - run.deliver_ms;
  rep.Sample("workload.inject_ms", "ms", run.inject_ms);
  rep.Sample("workload.deliver_ms", "ms", run.deliver_ms);
  rep.Sample("workload.engine_ms", "ms", engine_ms);
  if (route.steps > 0) {
    rep.Sample("workload.ns_per_step", "ns",
               run.route_ms * 1e6 / AsDouble(route.steps));
  }
  rep.Sample("workload.latency_p99", "steps", run.result.latency_p99);
  rep.Sample("net.engine_ctor_ms", "ms", run.ctor_ms);
  SampleRouteTime(engine_ms, route.moves, route.steps, rep);
  SampleEngineCounters(reg, rep);
}

int RunRoutePerm(const BenchOptions& opts, Report& rep, TraceRecord* trace) {
  const int n = opts.smoke ? 8 : 32;
  RunClosedLoop<RoutePermFixture>(
      opts, rep, trace,
      [&] {
        return std::make_unique<RoutePermFixture>(BuildTopology(3, n, 4, rep));
      },
      [&](RoutePermFixture& fx, std::int64_t i, TraceContext* tc) {
        return RoutePermRun(opts, rep, trace, fx, i, tc);
      });
  return 0;
}

int RunSortSimple(const BenchOptions& opts, Report& rep, TraceRecord* trace) {
  const int n = opts.smoke ? 16 : 128;
  const int g = SortOptions{}.g;
  RunClosedLoop<SortFixture>(
      opts, rep, trace,
      [&] {
        return std::make_unique<SortFixture>(BuildTopology(2, n, g, rep), g);
      },
      [&](SortFixture& fx, std::int64_t i, TraceContext* tc) {
        return SortRun(opts, rep, fx, i, tc);
      });
  return 0;
}

int RunDrainSparse(const BenchOptions& opts, Report& rep,
                   TraceRecord* trace) {
  const int n = opts.smoke ? 16 : 64;
  RunClosedLoop<DrainFixture>(
      opts, rep, trace,
      [&] {
        return std::make_unique<DrainFixture>(BuildTopology(3, n, 0, rep));
      },
      [&](DrainFixture& fx, std::int64_t i, TraceContext* tc) {
        return DrainRun(opts, rep, fx, i, tc);
      });
  return 0;
}

int RunOpenLoopWorkload(const BenchOptions& opts, Report& rep,
                        TraceRecord* trace) {
  const int n = opts.smoke ? 8 : 16;
  RunClosedLoop<OpenLoopFixture>(
      opts, rep, trace,
      [&] {
        return std::make_unique<OpenLoopFixture>(BuildTopology(3, n, 0, rep));
      },
      [&](OpenLoopFixture& fx, std::int64_t i, TraceContext* tc) {
        return OpenLoopRun(opts, rep, fx, i, tc);
      });
  return 0;
}

}  // namespace mdmesh::bench
