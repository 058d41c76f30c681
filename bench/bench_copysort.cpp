// E7 (DESIGN.md §3): Theorem 3.2 — CopySort reaches 5D/4 + o(n) on the
// d-dimensional mesh by making one copy of each packet (bound proven for
// d >= 8; the copy trick already pays off at every simulable d).
//
// Shape to reproduce: ratio(CopySort) < ratio(SimpleSort), trending toward
// 1.25 vs 1.5. The d >= 8 point runs at n = 4 (65536 processors) where the
// o(n) machinery is far outside its regime — reported honestly with its
// fix-up round count (see DESIGN.md §5).
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E7: CopySort (Theorem 3.2, claimed 1.25 D, d >= 8) vs "
              "SimpleSort (1.5 D) ==\n");
  struct Config {
    MeshSpec spec;
    int g;
  };
  std::vector<Config> configs = {
      {{2, 64, Wrap::kMesh}, 4}, {{2, 128, Wrap::kMesh}, 8},
      {{3, 16, Wrap::kMesh}, 4}, {{3, 32, Wrap::kMesh}, 4},
      {{4, 16, Wrap::kMesh}, 4}, {{6, 4, Wrap::kMesh}, 2},
      {{8, 4, Wrap::kMesh}, 2},
  };
  if (flags.quick) configs.resize(1);
  BenchJson json("copy_sort");
  std::vector<SortRow> rows;
  for (const Config& config : configs) {
    for (SortAlgo algo : {SortAlgo::kCopy, SortAlgo::kSimple}) {
      SortOptions opts;
      opts.g = config.g;
      opts.seed = 4242;
      rows.push_back(RunSortExperiment(algo, config.spec, opts));
      json.Add(rows.back());
    }
  }
  MakeSortTable(rows).Print();
  std::printf("claim: CopySort's copy+delete halves the second routing "
              "phase: ratio -> 1.25 (vs SimpleSort's 1.5)\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
  if (flags.quick) return;

  // Lemma 3.3 audit: the survivor phase's realized max distance vs D/2.
  std::printf("== Lemma 3.3: survivor routing distance <= D/2 + O(b) ==\n");
  Table table({"network", "D", "survivor max_dist", "D/2", "slack(b units)"});
  for (const Config& config : configs) {
    SortOptions opts;
    opts.g = config.g;
    opts.seed = 4242;
    SortRow row = RunSortExperiment(SortAlgo::kCopy, config.spec, opts);
    std::int64_t survivor_dist = 0;
    for (const PhaseStats& phase : row.result.phases) {
      if (phase.name == "route-survivors") survivor_dist = phase.max_distance;
    }
    const std::int64_t half = row.diameter / 2;
    const int b = config.spec.n / config.g;
    table.Row()
        .Cell(config.spec.ToString())
        .Cell(row.diameter)
        .Cell(survivor_dist)
        .Cell(half)
        .Cell(static_cast<double>(survivor_dist - half) / b, 2);
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_copysort",
                  "E7: CopySort vs SimpleSort (Theorem 3.2)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
