// E20: resilience under fault injection — random permutation routing on
// tori with seeded FaultPlans, sweeping the dead-link rate across (d, n).
// Reported per cell: completion rate over seeds, steps/D inflation versus
// the fault-free run, and the fraction of moves that were adaptive detours.
//
// Shape to observe: at low fault rates every connected instance still
// completes, with steps/D degrading gracefully (a few percent per percent
// of dead links); the engine's watchdog turns pathological instances into
// structured stall reports instead of step_cap burns.
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

struct Cell {
  MeshSpec spec;
  double link_rate = 0.0;
  int seeds = 0;
  int connected = 0;
  int completed = 0;
  int stalled = 0;  ///< incomplete runs that produced a stall report
  double ratio_sum = 0.0;       ///< steps/D over completed runs
  double detour_frac_sum = 0.0; ///< detours/moves over completed runs
};

void PrintResilienceTable(const OutputFlags& flags) {
  std::printf("== E20: routing resilience under link faults (adaptive "
              "detours, seeded FaultPlans) ==\n");
  std::vector<MeshSpec> specs = {
      {2, 16, Wrap::kTorus}, {2, 32, Wrap::kTorus}, {3, 8, Wrap::kTorus}};
  std::vector<double> rates = {0.0, 0.005, 0.01, 0.02, 0.05};
  int num_seeds = 5;
  if (flags.quick) {
    specs.resize(1);
    rates = {0.0, 0.01, 0.05};
    num_seeds = 3;
  }

  BenchJson json("resilience");
  Table table({"network", "link_rate", "connected", "completed", "stalls",
               "steps/D", "detour%"});
  for (const MeshSpec& spec : specs) {
    Topology topo = spec.Build();
    const auto D = static_cast<double>(topo.Diameter());
    for (double rate : rates) {
      Cell cell;
      cell.spec = spec;
      cell.link_rate = rate;
      for (int seed = 1; seed <= num_seeds; ++seed) {
        FaultSpec fs;
        fs.link_rate = rate;
        FaultPlan plan =
            FaultPlan::Random(topo, fs, static_cast<std::uint64_t>(seed));
        ++cell.seeds;
        const bool connected = plan.Connected();
        if (connected) ++cell.connected;

        EngineOptions opts;
        opts.faults = &plan;
        Engine engine(topo, opts);
        Network net(topo);
        Rng rng(static_cast<std::uint64_t>(seed) * 7919);
        const std::vector<ProcId> dest = RandomPermutation(topo, rng);
        for (ProcId p = 0; p < topo.size(); ++p) {
          Packet pkt;
          pkt.id = p;
          pkt.dest = dest[static_cast<std::size_t>(p)];
          pkt.klass = static_cast<std::uint16_t>(p % spec.d);
          net.Add(p, pkt);
        }
        RouteResult r = engine.Route(net);
        if (r.completed) {
          ++cell.completed;
          cell.ratio_sum += static_cast<double>(r.steps) / D;
          cell.detour_frac_sum +=
              r.moves > 0 ? static_cast<double>(r.detours) /
                                static_cast<double>(r.moves)
                          : 0.0;
        } else if (r.stall_report != nullptr) {
          ++cell.stalled;
        }

        std::ostringstream os;
        JsonWriter w(os);
        w.BeginObject();
        w.Key("experiment").String("resilience");
        w.Key("spec").BeginObject();
        w.Key("d").Int(spec.d);
        w.Key("n").Int(spec.n);
        w.Key("wrap").String("torus");
        w.EndObject();
        w.Key("seed").Int(seed);
        w.Key("link_rate").Double(rate);
        w.Key("connected").Bool(connected);
        w.Key("faults");
        plan.WriteJson(w);
        w.Key("steps").Int(r.steps);
        w.Key("D").Int(topo.Diameter());
        w.Key("ratio").Double(static_cast<double>(r.steps) / D);
        w.Key("completed").Bool(r.completed);
        w.Key("moves").Int(r.moves);
        w.Key("detours").Int(r.detours);
        if (r.stall_report != nullptr) {
          w.Key("stall");
          r.stall_report->WriteJson(w);
        }
        w.EndObject();
        json.AddRaw(os.str());
      }
      char conn_text[32], done_text[32];
      std::snprintf(conn_text, sizeof conn_text, "%d/%d", cell.connected,
                    cell.seeds);
      std::snprintf(done_text, sizeof done_text, "%d/%d", cell.completed,
                    cell.seeds);
      table.Row()
          .Cell(spec.ToString())
          .Cell(rate, 3)
          .Cell(conn_text)
          .Cell(done_text)
          .Cell(static_cast<std::int64_t>(cell.stalled));
      if (cell.completed > 0) {
        table.Cell(cell.ratio_sum / cell.completed, 3)
            .Cell(100.0 * cell.detour_frac_sum / cell.completed, 2);
      } else {
        table.Cell("-").Cell("-");
      }
    }
  }
  table.Print();
  std::printf("claim: every connected instance completes; steps/D and the "
              "detour share grow smoothly with the dead-link rate\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_resilience",
                  "E20: routing resilience under seeded link faults");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintResilienceTable(flags);
  return 0;
}
