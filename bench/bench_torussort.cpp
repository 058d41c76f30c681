// E8 (DESIGN.md §3): Theorem 3.3 — TorusSort sorts the d-dimensional torus
// in 3D/2 + o(n) steps (torus D = d*floor(n/2)) with one antipodal copy per
// packet, vs the FullSort baseline (~2D).
//
// Shape to reproduce: ratio(TorusSort) near 1.5 and below FullSort; the
// Lemma 3.4 audit shows survivors never travel beyond D/2 + O(b) — exact
// for the antipodal copy placement (DESIGN.md §2).
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E8: TorusSort (Theorem 3.3, claimed 1.5 D) vs FullSort "
              "baseline (~2 D) on tori ==\n");
  struct Config {
    MeshSpec spec;
    int g;
  };
  std::vector<Config> configs = {
      {{2, 32, Wrap::kTorus}, 4},  {{2, 64, Wrap::kTorus}, 4},
      {{2, 128, Wrap::kTorus}, 8}, {{3, 16, Wrap::kTorus}, 4},
      {{3, 32, Wrap::kTorus}, 4},  {{4, 8, Wrap::kTorus}, 2},
      {{4, 16, Wrap::kTorus}, 4},
  };
  if (flags.quick) configs.resize(1);
  BenchJson json("torus_sort");
  std::vector<SortRow> rows;
  for (const Config& config : configs) {
    for (SortAlgo algo : {SortAlgo::kTorus, SortAlgo::kFull}) {
      SortOptions opts;
      opts.g = config.g;
      opts.seed = 777;
      rows.push_back(RunSortExperiment(algo, config.spec, opts));
      json.Add(rows.back());
    }
  }
  MakeSortTable(rows).Print();
  std::printf("claim: ratio(TorusSort) -> 1.5 on tori; previous best was "
              "2D - n + o(n)\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
  if (flags.quick) return;

  std::printf("== Lemma 3.4: survivor distance <= D/2 + O(b) "
              "(exact for the antipodal copy) ==\n");
  Table table({"network", "D", "survivor max_dist", "D/2", "slack(b units)"});
  for (const Config& config : configs) {
    SortOptions opts;
    opts.g = config.g;
    opts.seed = 777;
    SortRow row = RunSortExperiment(SortAlgo::kTorus, config.spec, opts);
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
  mdmesh::Cli cli("bench_torussort",
                  "E8: TorusSort vs the FullSort baseline on tori (Theorem "
                  "3.3)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
