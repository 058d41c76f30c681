// E4 (DESIGN.md §3): Theorem 3.1 — SimpleSort sorts the d-dimensional mesh
// in 3D/2 + o(n) steps without copying packets, vs. the whole-network
// sort-and-unshuffle baseline (FullSort, ~2D).
//
// Shape to reproduce: SimpleSort's routing/D ratio sits near 1.5 and BELOW
// FullSort's, with the gap widening as blocks shrink relative to the network
// (the o(n) terms at simulable n are dominated by the block side b; see
// EXPERIMENTS.md for the finite-size discussion).
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E4: SimpleSort (Theorem 3.1, claimed 1.5 D) vs FullSort "
              "baseline (~2 D) ==\n");
  struct Config {
    MeshSpec spec;
    int g;
  };
  std::vector<Config> configs = {
      {{2, 32, Wrap::kMesh}, 4},  {{2, 64, Wrap::kMesh}, 4},
      {{2, 128, Wrap::kMesh}, 8}, {{3, 16, Wrap::kMesh}, 4},
      {{3, 32, Wrap::kMesh}, 4},  {{4, 8, Wrap::kMesh}, 2},
      {{4, 16, Wrap::kMesh}, 4},
  };
  if (flags.quick) configs.resize(1);
  BenchJson json("simple_sort");
  std::vector<SortRow> rows;
  for (const Config& config : configs) {
    for (SortAlgo algo : {SortAlgo::kSimple, SortAlgo::kFull}) {
      SortOptions opts;
      opts.g = config.g;
      opts.seed = 12345;
      rows.push_back(RunSortExperiment(algo, config.spec, opts));
      json.Add(rows.back());
    }
  }
  MakeSortTable(rows).Print();
  std::printf("claim: ratio(SimpleSort) -> 1.5, ratio(FullSort) -> 2.0; "
              "SimpleSort wins at every scale with b << n\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
  if (flags.quick) return;

  // The classical pre-mesh-algorithms baseline for perspective: odd-even
  // transposition over the global snake is Theta(N) = Theta(n^d) steps.
  std::printf("== classical baseline: odd-even transposition on the snake "
              "(Theta(N) steps) ==\n");
  std::vector<SortRow> classic;
  for (const MeshSpec& spec :
       {MeshSpec{2, 16, Wrap::kMesh}, MeshSpec{2, 32, Wrap::kMesh},
        MeshSpec{3, 8, Wrap::kMesh}}) {
    SortOptions opts;
    opts.seed = 12345;
    classic.push_back(RunSortExperiment(SortAlgo::kSnake, spec, opts));
    classic.push_back(RunSortExperiment(SortAlgo::kSimple, spec, opts));
  }
  MakeSortTable(classic).Print();
  std::printf("claim: the paper's O(dn) algorithms beat the classical "
              "Theta(n^d) chain sort by a factor ~n^(d-1)/d\n\n");
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_simplesort",
                  "E4: SimpleSort vs the FullSort baseline (Theorem 3.1)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
