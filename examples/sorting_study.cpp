// sorting_study: run any of the paper's sorting algorithms on any mesh/torus
// and inspect the per-phase accounting.
//
//   $ ./sorting_study --algo=simple --d=3 --n=16 --g=2
//   $ ./sorting_study --algo=copy --d=2 --n=64 --g=4 --input=desc
//   $ ./sorting_study --algo=torus --torus --d=2 --n=32 --k=2
//   $ ./sorting_study --algo=simple --trace --json=run.json --trace-csv=run.csv
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/mdmesh.h"
#include "util/cli.h"

namespace {

mdmesh::InputKind ParseInput(const std::string& name) {
  using mdmesh::InputKind;
  if (name == "random") return InputKind::kRandom;
  if (name == "asc") return InputKind::kSortedAsc;
  if (name == "desc") return InputKind::kSortedDesc;
  if (name == "equal") return InputKind::kAllEqual;
  if (name == "few") return InputKind::kFewValues;
  throw std::invalid_argument("unknown input kind: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("sorting_study",
          "run a sorting algorithm from Suel (SPAA'94) on a simulated mesh");
  cli.AddString("algo", "simple", "simple | copy | torus | full");
  cli.AddInt("d", 3, "dimension");
  cli.AddInt("n", 16, "side length");
  cli.AddInt("g", 0, "blocks per side (0 = auto)");
  cli.AddInt("k", 1, "packets per processor (k-k sorting)");
  cli.AddBool("torus", false, "wraparound edges");
  cli.AddString("input", "random", "random | asc | desc | equal | few");
  cli.AddString("cost", "oracle", "local-sort cost model: oracle | linear | measured");
  cli.AddInt("seed", 1, "rng seed");
  cli.AddBool("trace", false, "print the phase-span tree after the run");
  AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const OutputFlags out = GetOutputFlags(cli);

  MeshSpec spec{static_cast<int>(cli.GetInt("d")),
                static_cast<int>(cli.GetInt("n")),
                cli.GetBool("torus") ? Wrap::kTorus : Wrap::kMesh};
  SortOptions opts;
  opts.g = static_cast<int>(cli.GetInt("g"));
  opts.k = static_cast<int>(cli.GetInt("k"));
  opts.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  const std::string cost = cli.GetString("cost");
  opts.cost = cost == "linear"     ? LocalCostModel::kLinear
              : cost == "measured" ? LocalCostModel::kMeasured
                                   : LocalCostModel::kOracle;

  TraceContext trace_ctx;
  opts.trace = &trace_ctx;
  CongestionTrace congestion;
  if (out.WantsTrace()) opts.engine.probes = {&congestion};

  SortAlgo algo = ParseSortAlgo(cli.GetString("algo"));
  SortRow row =
      RunSortExperiment(algo, spec, opts, ParseInput(cli.GetString("input")));

  std::printf("%s on %s (D = %lld, claimed coefficient %.2f)\n",
              SortAlgoName(algo), spec.ToString().c_str(),
              static_cast<long long>(row.diameter), row.claimed);
  Table phases({"phase", "routing", "local", "max_dist", "max_q"});
  for (const PhaseStats& phase : row.result.phases) {
    phases.Row()
        .Cell(phase.name)
        .Cell(phase.routing_steps)
        .Cell(phase.local_steps)
        .Cell(phase.max_distance)
        .Cell(phase.max_queue);
  }
  phases.Print();
  std::printf("total: %s\n", row.result.Summary(row.diameter).c_str());
  std::printf("routing/D = %.3f (claimed %.2f + o(n)/D)\n", row.ratio,
              row.claimed);
  if (cli.GetBool("trace")) {
    std::printf("\nphase spans:\n%s", trace_ctx.RenderTree(row.diameter).c_str());
  }
  if (out.WantsJson()) {
    BenchJson json("sorting_study");
    json.Add(row);
    json.WriteFile(out.json);
  }
  if (out.WantsTrace()) {
    std::ofstream csv = OpenOutputFile(out.trace_csv, "--trace-csv");
    congestion.WriteCsv(csv);
    std::fprintf(stderr, "wrote %zu trace sample(s) to %s\n",
                 congestion.samples().size(), out.trace_csv.c_str());
  }
  return row.result.sorted ? 0 : 1;
}
