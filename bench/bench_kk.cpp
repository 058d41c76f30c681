// E5/E9 (DESIGN.md §3): k-k sorting.
//
//   Corollary 3.1.1: k <= floor(d/4) packets per processor sort on the mesh
//                    in the same 3D/2 + o(n) (the spare extended-greedy
//                    bandwidth of Lemma 2.3 absorbs the load).
//   Corollary 3.3.1: d-d sorting on the d-dimensional torus in 3D/2 + o(n)
//                    (Lemma 2.1's 2d-permutation bandwidth).
//
// Shape to reproduce: the ratio degrades only mildly as k grows up to the
// corollary's limit, and the k = d torus point stays in the same regime.
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E5: k-k SimpleSort on meshes (Corollary 3.1.1) ==\n");
  struct Config {
    MeshSpec spec;
    int g;
    int k;
  };
  std::vector<Config> mesh_configs = {
      {{2, 64, Wrap::kMesh}, 4, 1}, {{2, 64, Wrap::kMesh}, 4, 2},
      {{3, 16, Wrap::kMesh}, 4, 1}, {{3, 16, Wrap::kMesh}, 4, 2},
      {{4, 8, Wrap::kMesh}, 2, 1},  {{4, 8, Wrap::kMesh}, 2, 2},
  };
  if (flags.quick) mesh_configs.resize(2);
  BenchJson json("kk_sort");
  Table mesh_table({"network", "k", "D", "routing", "ratio", "claimed",
                    "max_q", "sorted"});
  for (const Config& config : mesh_configs) {
    SortOptions opts;
    opts.g = config.g;
    opts.k = config.k;
    opts.seed = 31337;
    SortRow row = RunSortExperiment(SortAlgo::kSimple, config.spec, opts);
    json.Add(row);
    mesh_table.Row()
        .Cell(config.spec.ToString())
        .Cell(static_cast<std::int64_t>(config.k))
        .Cell(row.diameter)
        .Cell(row.result.routing_steps)
        .Cell(row.ratio)
        .Cell(1.5, 2)
        .Cell(row.result.max_queue)
        .Cell(row.result.sorted ? "yes" : "NO");
  }
  mesh_table.Print();
  if (flags.quick) {
    if (flags.WantsJson()) json.WriteFile(flags.json);
    return;
  }
  std::printf("\n== E9: d-d TorusSort (Corollary 3.3.1, k = d) ==\n");
  const std::vector<Config> torus_configs = {
      {{2, 32, Wrap::kTorus}, 4, 2},
      {{2, 64, Wrap::kTorus}, 4, 2},
      {{3, 16, Wrap::kTorus}, 4, 3},
      {{4, 8, Wrap::kTorus}, 2, 4},
  };
  Table torus_table({"network", "k", "D", "routing", "ratio", "claimed",
                     "max_q", "sorted"});
  for (const Config& config : torus_configs) {
    SortOptions opts;
    opts.g = config.g;
    opts.k = config.k;
    opts.seed = 31337;
    SortRow row = RunSortExperiment(SortAlgo::kTorus, config.spec, opts);
    json.Add(row);
    torus_table.Row()
        .Cell(config.spec.ToString())
        .Cell(static_cast<std::int64_t>(config.k))
        .Cell(row.diameter)
        .Cell(row.result.routing_steps)
        .Cell(row.ratio)
        .Cell(1.5, 2)
        .Cell(row.result.max_queue)
        .Cell(row.result.sorted ? "yes" : "NO");
  }
  torus_table.Print();
  std::printf("claim: k-k loads up to the corollary limits keep the same "
              "leading coefficient (bisection forces >= kn/2 resp. kn/4 for "
              "large k)\n\n");

  // Where the corollaries' diameter-dominated regime ends: the k at which
  // the Section 1.1 bisection bound kn/2 (mesh) / kn/4 (torus) overtakes
  // 1.5 D — beyond it the k >= 4d algorithms of [5, 6, 12] take over.
  std::printf("== bisection crossover: diameter regime vs bisection regime "
              "==\n");
  Table cross({"network", "D", "bisection width", "LB at k=1", "LB at k=4d",
               "crossover k (vs 1.5D)"});
  for (const MeshSpec& spec :
       {MeshSpec{2, 16, Wrap::kMesh}, MeshSpec{3, 16, Wrap::kMesh},
        MeshSpec{4, 8, Wrap::kMesh}, MeshSpec{8, 4, Wrap::kMesh},
        MeshSpec{3, 16, Wrap::kTorus}, MeshSpec{4, 8, Wrap::kTorus}}) {
    Topology topo = spec.Build();
    cross.Row()
        .Cell(spec.ToString())
        .Cell(topo.Diameter())
        .Cell(BisectionWidth(topo))
        .Cell(KkBisectionBound(topo, 1), 1)
        .Cell(KkBisectionBound(topo, 4 * spec.d), 1)
        .Cell(BisectionCrossoverK(topo, 1.5));
  }
  cross.Print();
  std::printf("claim: the crossover k grows with d — small-k sorting is "
              "diameter-bound, matching Corollary 3.1.1's k <= d/4 regime\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_kk",
                  "E5/E9: k-k sorting (Corollaries 3.1.1, 3.3.1)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
