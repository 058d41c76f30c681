// E15/E16 (DESIGN.md §3): Theorems 5.2 and 5.3 — permutation routing on the
// d-dimensional torus in D + n/8 + o(n) (nu = n/16), and the epsilon-n trend:
// as d grows, smaller and smaller nu keep the midpoint sets non-empty
// (k * |S_nu| * B >= N), driving the running time toward D + eps*n.
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E15: two-phase routing on tori (Theorem 5.2, claimed "
              "<= D + n/8 + o(n)) ==\n");
  struct Config {
    MeshSpec spec;
    int g;
  };
  std::vector<Config> configs = {
      {{2, 32, Wrap::kTorus}, 4}, {{2, 64, Wrap::kTorus}, 4},
      {{2, 128, Wrap::kTorus}, 8}, {{3, 16, Wrap::kTorus}, 4},
      {{3, 32, Wrap::kTorus}, 4}, {{4, 8, Wrap::kTorus}, 2},
  };
  if (flags.quick) configs.resize(1);
  BenchJson json("two_phase_torus");
  std::vector<RoutingRow> rows;
  for (const Config& config : configs) {
    for (const char* perm : {"random", "reversal", "transpose"}) {
      TwoPhaseOptions opts;
      opts.g = config.g;
      opts.seed = 55;
      rows.push_back(RunRoutingExperiment(config.spec, perm, opts));
      json.Add(rows.back());
    }
  }
  MakeRoutingTable(rows).Print();
  std::printf("claim: 2phase/D <= (D + n/8)/D + o(1) on every permutation\n\n");

  if (flags.quick) {
    if (flags.WantsJson()) json.WriteFile(flags.json);
    return;
  }

  // Section 6 open question, torus edition: overlapped phases.
  std::printf("== overlapped vs sequential phases (tori) ==\n");
  Table overlap_table({"network", "perm", "D", "sequential", "overlapped",
                       "overlapped/D"});
  for (const Config& config :
       {Config{{2, 64, Wrap::kTorus}, 4}, Config{{2, 128, Wrap::kTorus}, 8}}) {
    for (const char* perm : {"random", "reversal"}) {
      TwoPhaseOptions seq;
      seq.g = config.g;
      seq.seed = 55;
      RoutingRow sequential = RunRoutingExperiment(config.spec, perm, seq);
      TwoPhaseOptions ovl = seq;
      ovl.overlap = true;
      RoutingRow overlapped = RunRoutingExperiment(config.spec, perm, ovl);
      overlap_table.Row()
          .Cell(config.spec.ToString())
          .Cell(perm)
          .Cell(sequential.diameter)
          .Cell(sequential.two_phase.total_steps)
          .Cell(overlapped.two_phase.total_steps)
          .Cell(overlapped.two_phase.steps_over_diameter(overlapped.diameter));
    }
  }
  overlap_table.Print();
  std::printf("\n");

  // E16: nu feasibility trend (Theorem 5.3). The midpoint sets S_nu(X,Y)
  // stay non-empty at smaller and smaller nu/n as d grows — measured as the
  // minimal nu/n (in 1/32 steps) with min|S_nu| * B * floor(d/2) >= N.
  std::printf("== E16: minimal feasible nu as d grows (Theorem 5.3) ==\n");
  Table table({"network", "g", "min feasible nu/n", "min|S| at nu=n/16"});
  const std::vector<Config> trend = {
      {{2, 16, Wrap::kTorus}, 4},
      {{3, 16, Wrap::kTorus}, 4},
      {{4, 8, Wrap::kTorus}, 2},
      {{5, 8, Wrap::kTorus}, 2},
      {{6, 4, Wrap::kTorus}, 2},
  };
  for (const Config& config : trend) {
    Topology topo = config.spec.Build();
    BlockGrid grid(topo, config.g);
    const std::int64_t N = topo.size();
    const std::int64_t bandwidth = std::max<std::int64_t>(1, config.spec.d / 2);
    double feasible = -1.0;
    for (int t = 0; t <= 32; ++t) {
      const double nu = static_cast<double>(t) * config.spec.n / 32.0;
      if (bandwidth * MinMidpointSetSize(grid, nu) * grid.block_volume() >= N) {
        feasible = static_cast<double>(t) / 32.0;
        break;
      }
    }
    table.Row()
        .Cell(config.spec.ToString())
        .Cell(static_cast<std::int64_t>(config.g))
        .Cell(feasible, 3)
        .Cell(MinMidpointSetSize(grid, config.spec.n / 16.0));
  }
  table.Print();
  std::printf("claim: the feasible nu/n shrinks with d (routing time -> "
              "D + eps*n)\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_routing_torus",
                  "E15/E16: two-phase permutation routing on tori (Theorems "
                  "5.2, 5.3)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
