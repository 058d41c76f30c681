// E1-E3 (DESIGN.md §3): greedy routing of simultaneous permutations.
//
//   Lemma 2.1: up to 2d random permutations route DISTANCE-OPTIMALLY on the
//              d-dimensional torus (max overshoot o(n)).
//   Lemma 2.2/2.3: 2 resp. floor(d/2) permutations on the mesh; d
//              simultaneous permutations are NOT distance-optimal on meshes.
//   Leighton [13] baseline: one random permutation, plain greedy.
//
// The table sweeps the permutation count j at several (d, n, topology) and
// reports max overshoot / n — the distance-optimality measure. The paper's
// shape: overshoot stays a small multiple of n up to the lemma's j, and
// grows sharply beyond it (clearest on the mesh past floor(d/2)).
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E1-E3: distance-optimality of extended greedy routing "
              "(Lemmas 2.1-2.3) ==\n");
  std::vector<GreedyRow> rows;
  struct Sweep {
    MeshSpec spec;
    std::vector<int> perm_counts;
  };
  std::vector<Sweep> sweeps = {
      {{2, 32, Wrap::kMesh}, {1, 2, 4}},        // Lemma 2.2 regime is j<=1..2
      {{3, 16, Wrap::kMesh}, {1, 2, 3, 6}},     // floor(d/2)=1 .. beyond
      {{4, 8, Wrap::kMesh}, {1, 2, 4, 8}},      // floor(d/2)=2 .. beyond
      {{2, 32, Wrap::kTorus}, {2, 4, 8}},       // Lemma 2.1: 2d = 4
      {{3, 16, Wrap::kTorus}, {3, 6, 12}},      // 2d = 6
      {{4, 8, Wrap::kTorus}, {4, 8, 16}},       // 2d = 8
  };
  if (flags.quick) sweeps = {{{2, 32, Wrap::kMesh}, {1, 2}}};
  BenchJson json("greedy");
  for (const Sweep& sweep : sweeps) {
    for (int j : sweep.perm_counts) {
      rows.push_back(RunGreedyExperiment(sweep.spec, j, 42));
      json.Add(rows.back());
    }
  }
  MakeGreedyTable(rows).Print();
  std::printf(
      "claim: overshoot/n stays O(1) for j <= 2d (torus) resp. floor(d/2) "
      "(mesh)\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
  if (flags.quick) return;

  // The deterministic stand-in: unshuffle permutations route like random
  // ones (Section 2.1's claim).
  std::printf("== unshuffle permutations route like random ones ==\n");
  Table table({"network", "perms", "kind", "steps", "max_overshoot"});
  for (int j : {1, 2}) {
    MeshSpec spec{3, 16, Wrap::kMesh};
    Topology topo = spec.Build();
    BlockGrid grid(topo, 2);
    GreedyOptions opts;
    opts.seed = 7;
    GreedyRun unshuffled = RouteUnshufflePermutations(topo, grid, j, opts);
    GreedyRun random = RouteRandomPermutations(topo, j, opts);
    table.Row()
        .Cell(spec.ToString())
        .Cell(static_cast<std::int64_t>(j))
        .Cell("unshuffle")
        .Cell(unshuffled.route.steps)
        .Cell(unshuffled.route.max_overshoot);
    table.Row()
        .Cell(spec.ToString())
        .Cell(static_cast<std::int64_t>(j))
        .Cell("random")
        .Cell(random.route.steps)
        .Cell(random.route.max_overshoot);
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_greedy",
                  "E1-E3: distance-optimality of extended greedy routing "
                  "(Lemmas 2.1-2.3)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
