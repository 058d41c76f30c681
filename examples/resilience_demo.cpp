// resilience_demo: route a random permutation through a network with seeded
// faults and watch the engine cope. Shows the FaultPlan summary, whether the
// damaged network is still strongly connected, the adaptive-detour overhead
// versus the fault-free diameter bound, and — when the run cannot finish —
// the watchdog's structured stall report.
//
// Fault rates are given in per-mille (tenths of a percent) so they stay
// integer flags:
//
//   $ ./resilience_demo --d=2 --n=16 --link-pm=20          # 2% dead links
//   $ ./resilience_demo --d=3 --n=8 --node-pm=30 --seed=7  # 3% dead nodes
//   $ ./resilience_demo --d=2 --n=32 --flap-pm=50          # transient flaps
//   $ ./resilience_demo --link-pm=500 --stall-window=32    # likely stall
//
// With --flight-recorder=PATH the engine keeps a black-box ring of recent
// step records and dumps it to PATH when the watchdog fires, the step cap
// hits, an invariant trips, or the process takes SIGINT/SIGTERM — the last
// records of a stalled run, ready for postmortem. --progress adds a stderr
// heartbeat.
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mdmesh.h"
#include "routing/policy.h"
#include "util/cli.h"

namespace {

// In-flight packet counts over time, bucketed into a fixed-width bar chart.
std::string Sparkline(const std::vector<std::int64_t>& series, int width) {
  static const char* levels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (series.empty()) return "";
  std::int64_t peak = 1;
  for (std::int64_t v : series) peak = std::max(peak, v);
  std::string out;
  const std::size_t n = series.size();
  for (int x = 0; x < width; ++x) {
    const std::size_t at =
        static_cast<std::size_t>(x) * n / static_cast<std::size_t>(width);
    out += levels[static_cast<std::size_t>(series[at] * 7 / peak)];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("resilience_demo",
          "permutation routing under seeded link/node faults");
  cli.AddInt("d", 2, "dimension");
  cli.AddInt("n", 16, "side length");
  cli.AddBool("mesh", false, "open mesh edges (default is a torus)");
  cli.AddInt("link-pm", 10, "dead directed links, per mille");
  cli.AddInt("node-pm", 0, "dead processors, per mille");
  cli.AddInt("flap-pm", 0, "flapping links, per mille");
  cli.AddInt("seed", 1, "seed for both the FaultPlan and the permutation");
  cli.AddInt("isolate", -1,
             "surgically kill every link around this processor; its "
             "outbound packet freezes and the watchdog fires once the "
             "rest deliver (guaranteed-stall demo)");
  cli.AddInt("stall-window", 0,
             "watchdog window in steps (0 = auto, negative disables)");
  cli.AddBool("invariants", false, "run the per-step invariant checker");
  AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const OutputFlags out = GetOutputFlags(cli);

  const MeshSpec spec{static_cast<int>(cli.GetInt("d")),
                      static_cast<int>(cli.GetInt("n")),
                      cli.GetBool("mesh") ? Wrap::kMesh : Wrap::kTorus};
  const Topology topo = spec.Build();
  const auto seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  FaultSpec fs;
  fs.link_rate = static_cast<double>(cli.GetInt("link-pm")) / 1000.0;
  fs.node_rate = static_cast<double>(cli.GetInt("node-pm")) / 1000.0;
  fs.flap_rate = static_cast<double>(cli.GetInt("flap-pm")) / 1000.0;
  FaultPlan plan = FaultPlan::Random(topo, fs, seed);
  const std::int64_t isolate = cli.GetInt("isolate");
  if (isolate >= topo.size()) {
    std::fprintf(stderr, "--isolate=%lld out of range (size %lld)\n",
                 static_cast<long long>(isolate),
                 static_cast<long long>(topo.size()));
    return 2;
  }
  if (isolate >= 0) {
    // Sever the processor from the network but leave it alive: random
    // link faults make packets bounce (obstacle-following counts as
    // progress), whereas a fully severed proc's packet cannot move at
    // all, so this is the one configuration that reliably trips the
    // no-progress watchdog rather than burning to the step cap.
    for (int dim = 0; dim < spec.d; ++dim) {
      for (int dir = 0; dir < 2; ++dir) {
        plan.KillLinkPair(static_cast<ProcId>(isolate), dim, dir);
      }
    }
  }
  const bool connected = plan.Connected();

  std::printf("%s, seed %llu: %lld dead links, %lld dead nodes, %zu flaps\n",
              spec.ToString().c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(plan.dead_link_count()),
              static_cast<long long>(plan.dead_node_count()),
              plan.flap_count());
  std::printf("alive subgraph strongly connected: %s\n",
              connected ? "yes" : "NO (some pairs cannot route)");

  // A random permutation over the full id space; packets that start on or
  // target a dead processor are erased (a dead node can neither send nor
  // receive), mirroring how a real system would drop their traffic.
  Network net(topo);
  Rng rng(seed * 7919);
  const std::vector<ProcId> dest = RandomPermutation(topo, rng);
  for (ProcId p = 0; p < topo.size(); ++p) {
    Packet pkt;
    pkt.id = p;
    pkt.dest = dest[static_cast<std::size_t>(p)];
    pkt.klass = static_cast<std::uint16_t>(p % spec.d);
    net.Add(p, pkt);
  }
  const std::int64_t erased = net.EraseIf([&](ProcId p, const Packet& pkt) {
    // Packets aimed at a severed processor can never arrive and would
    // bounce around its neighborhood forever; drop them like dead-node
    // traffic. The severed proc's own outbound packet stays — frozen.
    return plan.NodeDead(p) || plan.NodeDead(pkt.dest) ||
           (isolate >= 0 && pkt.dest == isolate && p != pkt.dest);
  });
  const std::int64_t reassigned = ReassignClassesForFaults(net, plan);
  if (erased > 0 || reassigned > 0) {
    std::printf("dropped %lld packet(s) touching dead nodes; "
                "reassigned %lld first-hop class(es)\n",
                static_cast<long long>(erased),
                static_cast<long long>(reassigned));
  }

  EngineOptions opts;
  opts.faults = &plan;
  opts.stall_window = cli.GetInt("stall-window");
  opts.invariants =
      cli.GetBool("invariants") ? InvariantMode::kOn : InvariantMode::kAuto;
  FlightRecorder recorder;
  if (out.WantsFlightRecorder()) {
    recorder.set_dump_path(out.flight_recorder);
    FlightRecorder::InstallSignalHandlers();
    opts.recorder = &recorder;
  }
  // --checkpoint: snapshot the faulted run on a cadence and on aborts, so a
  // stalled or interrupted campaign restarts mid-route (--resume) instead
  // of from scratch. Fault state resumes too — the plan's flap events are
  // replayed up to the checkpoint's cursor.
  std::unique_ptr<CheckpointManager> ckpt;
  if (out.WantsCheckpoint()) {
    CheckpointOptions copts;
    copts.dir = out.checkpoint;
    copts.every_steps = out.checkpoint_every > 0 ? out.checkpoint_every : 64;
    copts.keep = static_cast<int>(out.checkpoint_keep);
    ckpt = std::make_unique<CheckpointManager>(copts);
    FlightRecorder::InstallSignalHandlers();
    opts.checkpoint = ckpt.get();
  }
  struct InFlightSeries final : StepProbe {
    void OnStep(const StepSnapshot& snap) override {
      values.push_back(snap.in_flight);
    }
    std::vector<std::int64_t> values;
  } in_flight_series;
  ProgressMeter meter(/*step_cap=*/0, /*interval_ms=*/500, out.progress);
  opts.probes = {&in_flight_series, &meter};
  Engine engine(topo, opts);
  RouteResult r;
  if (out.resume) {
    if (ckpt == nullptr) {
      std::fprintf(stderr, "--resume requires --checkpoint=DIR\n");
      return 2;
    }
    EngineCheckpointState state;
    std::string loaded_path;
    std::string log;
    const CkptStatus status = CheckpointManager::LoadNewestValid(
        out.checkpoint, &state, /*expected_options_hash=*/nullptr,
        &loaded_path, &log);
    if (!log.empty()) std::fprintf(stderr, "[ckpt] skipped:\n%s", log.c_str());
    if (status != CkptStatus::kOk) {
      std::fprintf(stderr, "--resume: no valid checkpoint in %s (%s)\n",
                   out.checkpoint.c_str(), CkptStatusName(status));
      return 1;
    }
    std::fprintf(stderr, "[ckpt] resuming from %s (step %lld)\n",
                 loaded_path.c_str(), static_cast<long long>(state.step));
    try {
      r = engine.Resume(net, state);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--resume: %s\n", e.what());
      return 1;
    }
  } else {
    r = engine.Route(net);
  }
  meter.Finish();

  const auto D = static_cast<double>(topo.Diameter());
  if (r.completed) {
    std::printf("delivered %lld packet(s) in %lld steps = %.3f x D "
                "(fault-free run takes ~D)\n",
                static_cast<long long>(r.packets),
                static_cast<long long>(r.steps),
                static_cast<double>(r.steps) / D);
    std::printf("%lld of %lld moves were adaptive detours (%.2f%%), "
                "max queue %lld\n",
                static_cast<long long>(r.detours),
                static_cast<long long>(r.moves),
                r.moves > 0 ? 100.0 * static_cast<double>(r.detours) /
                                  static_cast<double>(r.moves)
                            : 0.0,
                static_cast<long long>(r.max_queue));
  } else if (r.stall_report != nullptr) {
    std::printf("run aborted:\n%s\n", r.stall_report->ToString().c_str());
  }
  std::printf("in-flight packets over time:\n  [%s]\n",
              Sparkline(in_flight_series.values, 64).c_str());

  if (out.WantsJson()) {
    BenchJson json("resilience_demo");
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    w.Key("spec").BeginObject();
    w.Key("d").Int(spec.d);
    w.Key("n").Int(spec.n);
    w.Key("wrap").String(spec.wrap == Wrap::kTorus ? "torus" : "mesh");
    w.EndObject();
    w.Key("seed").Int(static_cast<std::int64_t>(seed));
    w.Key("connected").Bool(connected);
    w.Key("faults");
    plan.WriteJson(w);
    w.Key("erased").Int(erased);
    w.Key("reassigned").Int(reassigned);
    w.Key("result");
    r.WriteJson(w);
    w.EndObject();
    json.AddRaw(os.str());
    json.WriteFile(out.json);
  }
  return r.completed ? 0 : 1;
}
