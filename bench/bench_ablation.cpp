// E6/E18 (DESIGN.md §3): design-choice ablations.
//
//   E6  — Corollary 3.1.2: shrinking the center region below m/2 blocks
//         trades concentration distance (phase gets shorter: D + 2r) against
//         per-processor load (k*m/mc packets). The sweep shows the measured
//         trade-off.
//   E18 — derandomization (Section 2.1): the deterministic sort-and-unshuffle
//         spread vs Valiant-Brebner random intermediate destinations. The
//         claim is they behave alike — that is the whole point of the
//         unshuffle machinery.
#include <cstdio>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintCenterSizeAblation(BenchJson& json) {
  std::printf("== E6: center-region size sweep (Corollary 3.1.2 machinery, "
              "mesh d=2 n=64 g=4, m=16) ==\n");
  Table table({"center blocks", "load/proc", "region radius", "D", "routing",
               "ratio", "sorted"});
  const MeshSpec spec{2, 64, Wrap::kMesh};
  for (std::int64_t mc : {2, 4, 8, 16}) {
    SortOptions opts;
    opts.g = 4;
    opts.center_blocks = mc;
    opts.seed = 11;
    SortRow row = RunSortExperiment(SortAlgo::kSimple, spec, opts);
    json.Add(row);
    Topology topo = spec.Build();
    BlockGrid grid(topo, 4);
    CenterRegion region(grid, mc);
    table.Row()
        .Cell(mc)
        .Cell(16 / mc)  // k*m/mc with k=1, m=16
        .Cell(region.radius(), 1)
        .Cell(row.diameter)
        .Cell(row.result.routing_steps)
        .Cell(row.ratio)
        .Cell(row.result.sorted ? "yes" : "NO");
  }
  table.Print();
  std::printf("claim: smaller regions cut the travel radius (-> D + 2r) but "
              "raise congestion; mc = m/2 is the paper's sweet spot unless d "
              "is large\n\n");
}

void PrintDerandomizationAblation(BenchJson& json) {
  std::printf("== E18: deterministic unshuffle spread vs random intermediate "
              "destinations (Section 2.1) ==\n");
  Table table({"network", "algo", "spread", "routing", "ratio", "max_q",
               "sorted"});
  struct Config {
    MeshSpec spec;
    int g;
    SortAlgo algo;
  };
  const std::vector<Config> configs = {
      {{2, 64, Wrap::kMesh}, 4, SortAlgo::kSimple},
      {{3, 16, Wrap::kMesh}, 4, SortAlgo::kSimple},
      {{2, 64, Wrap::kMesh}, 4, SortAlgo::kFull},
      {{3, 16, Wrap::kMesh}, 4, SortAlgo::kFull},
      {{2, 64, Wrap::kMesh}, 4, SortAlgo::kCopy},
  };
  for (const Config& config : configs) {
    for (bool randomized : {false, true}) {
      SortOptions opts;
      opts.g = config.g;
      opts.seed = 13;
      opts.randomized_spread = randomized;
      SortRow row = RunSortExperiment(config.algo, config.spec, opts);
      json.Add(row);
      table.Row()
          .Cell(config.spec.ToString())
          .Cell(SortAlgoName(config.algo))
          .Cell(randomized ? "random" : "unshuffle")
          .Cell(row.result.routing_steps)
          .Cell(row.ratio)
          .Cell(row.result.max_queue)
          .Cell(row.result.sorted ? "yes" : "NO");
    }
  }
  table.Print();
  std::printf("claim: the deterministic unshuffle matches the randomized "
              "spread's step count (and keeps queues tighter)\n\n");

  // Extended-greedy class assignment ablation: by-permutation vs local-rank
  // vs all-zero classes on a multi-permutation load.
  std::printf("== extended-greedy class assignment (Section 2.2) ==\n");
  Table classes({"mode", "steps", "steps/D", "max_overshoot", "max_q"});
  const MeshSpec spec{3, 16, Wrap::kTorus};
  Topology topo = spec.Build();
  for (auto [name, mode] :
       std::vector<std::pair<const char*, ClassMode>>{
           {"by-permutation", ClassMode::kByPermutation},
           {"local-rank", ClassMode::kLocalRank},
           {"random", ClassMode::kRandom},
           {"all-zero (plain greedy)", ClassMode::kZero}}) {
    GreedyOptions opts;
    opts.seed = 17;
    opts.class_mode = mode;
    GreedyRun run = RouteRandomPermutations(topo, 6, opts);
    classes.Row()
        .Cell(name)
        .Cell(run.route.steps)
        .Cell(run.steps_over_diameter())
        .Cell(run.route.max_overshoot)
        .Cell(run.route.max_queue);
  }
  classes.Print();
  std::printf("claim: splitting the 2d permutations across dimension orders "
              "(any of the first three modes) beats forcing them all through "
              "dimension order 0\n\n");
}

void PrintCostModelAblation() {
  std::printf("== local-sort cost models (DESIGN.md §1): what the o(n) term "
              "costs under each accounting ==\n");
  Table table({"network", "g", "cost model", "routing", "local", "total",
               "sorted"});
  const MeshSpec spec{2, 32, Wrap::kMesh};
  for (int g : {2, 4}) {
    for (auto [name, model] :
         std::vector<std::pair<const char*, LocalCostModel>>{
             {"oracle (0)", LocalCostModel::kOracle},
             {"linear (4db)", LocalCostModel::kLinear},
             {"measured (odd-even)", LocalCostModel::kMeasured}}) {
      SortOptions opts;
      opts.g = g;
      opts.seed = 29;
      opts.cost = model;
      SortRow row = RunSortExperiment(SortAlgo::kSimple, spec, opts);
      table.Row()
          .Cell(spec.ToString())
          .Cell(static_cast<std::int64_t>(g))
          .Cell(name)
          .Cell(row.result.routing_steps)
          .Cell(row.result.local_steps)
          .Cell(row.result.total_steps)
          .Cell(row.result.sorted ? "yes" : "NO");
    }
  }
  table.Print();
  std::printf("note: at simulable n the measured odd-even block sort costs "
              "Theta(b^d) and swamps the routing term — the reason the paper "
              "cites o(n) block-sorting results instead (and we default to "
              "the oracle model for bound verification)\n\n");
}

void PrintRemapAblation() {
  std::printf("== sorting into other indexing schemes (remap adapter) ==\n");
  Table table({"network", "target scheme", "sort routing", "remap steps",
               "total/D", "sorted"});
  const MeshSpec spec{2, 64, Wrap::kMesh};
  Topology topo = spec.Build();
  BlockGrid grid(topo, 4);
  for (const char* name : {"row-major", "snake", "morton", "hilbert"}) {
    auto scheme = MakeIndexing(name, spec.d, spec.n, 0);
    Network net(topo);
    FillInput(net, grid, 1, InputKind::kRandom, 37);
    SortOptions opts;
    opts.g = 4;
    SortResult r = SortIntoScheme(SortAlgo::kSimple, net, grid, *scheme, opts);
    const std::int64_t remap_steps = r.phases.back().routing_steps;
    table.Row()
        .Cell(spec.ToString())
        .Cell(scheme->Name())
        .Cell(r.routing_steps - remap_steps)
        .Cell(remap_steps)
        .Cell(r.RatioToDiameter(spec.diameter()))
        .Cell(r.sorted ? "yes" : "NO");
  }
  table.Print();
  std::printf("note: the paper's algorithms target the blocked snake; one "
              "extra fixed-permutation phase (<= D + o(n)) retargets any "
              "bijective scheme\n\n");
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_ablation",
                  "E6/E18: center-region, derandomization and cost-model "
                  "ablations");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::BenchJson json("ablation");
  mdmesh::PrintCenterSizeAblation(json);
  if (!flags.quick) {
    mdmesh::PrintDerandomizationAblation(json);
    mdmesh::PrintCostModelAblation();
    mdmesh::PrintRemapAblation();
  }
  if (flags.WantsJson()) json.WriteFile(flags.json);
  return 0;
}
