// E10-E12 (DESIGN.md §3): the Section 4 lower bounds, evaluated exactly.
//
//   E10 — Lemma 4.1: exact diamond volume/surface vs the analytic Chernoff
//         bounds, swept over d and gamma.
//   E11 — Lemma 4.2 / Theorem 4.1: the capacity condition and the resulting
//         no-copy sorting lower bound (-> (3/2 - eps) D), plus the d0(eps)
//         thresholds.
//   E12 — Theorems 4.3/4.4: the with-copying coefficients and their d0
//         premises.
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/mdmesh.h"

namespace mdmesh {
namespace {

// The lower-bound tables are analytic (no simulation), so the JSON records
// carry the evaluated quantities directly instead of the routing schema.
void WriteJsonRecords(const OutputFlags& flags) {
  if (!flags.WantsJson()) return;
  BenchJson json("lower_bounds");
  for (int d : {2, 4, 8, 16, 32}) {
    for (double gamma : {0.2, 0.5, 0.8}) {
      std::ostringstream os;
      JsonWriter w(os);
      w.BeginObject();
      w.Key("experiment").String("lower_bounds");
      w.Key("lemma").String("4.1");
      w.Key("d").Int(d);
      w.Key("n").Int(33);
      w.Key("gamma").Double(gamma);
      w.Key("volume_exact").Double(ExactVolumeNormalized(d, 33, gamma));
      w.Key("volume_bound").Double(Lemma41VolumeBoundNormalized(d, gamma));
      w.Key("surface_exact").Double(ExactSurfaceNormalized(d, 33, gamma));
      w.Key("surface_bound").Double(Lemma41SurfaceBoundNormalized(d, gamma));
      w.Key("holds").Bool(CheckLemma41(d, 33, gamma));
      w.EndObject();
      json.AddRaw(os.str());
    }
  }
  for (double eps : {0.05, 0.1, 0.2, 0.3}) {
    std::ostringstream os;
    JsonWriter w(os);
    w.BeginObject();
    w.Key("experiment").String("lower_bounds");
    w.Key("theorem").String("4.3/4.4");
    w.Key("eps").Double(eps);
    w.Key("mesh_coeff").Double(CopyMeshCoefficient(eps));
    w.Key("torus_coeff").Double(CopyTorusCoefficient(eps));
    w.Key("d0").Int(FindD0Copying(eps, 0.01, 33));
    w.EndObject();
    json.AddRaw(os.str());
  }
  json.WriteFile(flags.json);
}

void PrintLemma41Table() {
  std::printf("== E10: Lemma 4.1 — exact diamond counts vs analytic bounds "
              "(n = 33) ==\n");
  Table table({"d", "gamma", "V/n^d exact", "V bound", "S/n^(d-1) exact",
               "S bound", "holds"});
  for (int d : {2, 4, 8, 16, 32}) {
    for (double gamma : {0.2, 0.5, 0.8}) {
      table.Row()
          .Cell(static_cast<std::int64_t>(d))
          .Cell(gamma, 2)
          .Cell(ExactVolumeNormalized(d, 33, gamma), 6)
          .Cell(Lemma41VolumeBoundNormalized(d, gamma), 6)
          .Cell(ExactSurfaceNormalized(d, 33, gamma), 6)
          .Cell(Lemma41SurfaceBoundNormalized(d, gamma), 6)
          .Cell(CheckLemma41(d, 33, gamma) ? "yes" : "NO");
    }
  }
  table.Print();
  std::printf("claim: both inequalities hold everywhere; the exact counts "
              "decay exponentially in d\n\n");
}

void PrintLemma42Table() {
  std::printf("== E11: Lemma 4.2 / Theorem 4.1 — no-copy sorting lower bound "
              "(n = 33, beta = 0.7) ==\n");
  Table table({"d", "gamma", "capacity lhs", "capacity rhs", "condition",
               "bound/D"});
  for (int d : {2, 4, 8, 16, 32, 64}) {
    for (double gamma : {0.3, 0.6}) {
      Lemma42Eval eval = EvalLemma42(d, 33, gamma, 0.7);
      table.Row()
          .Cell(static_cast<std::int64_t>(d))
          .Cell(gamma, 2)
          .Cell(eval.lhs, 4)
          .Cell(eval.rhs, 4)
          .Cell(eval.condition_holds ? "holds" : "-")
          .Cell(eval.bound_over_D, 4);
    }
  }
  table.Print();
  std::printf("claim: once the condition holds (large d), sorting without "
              "copying needs >= (1 + (1-gamma)/2) D - o(D) steps\n\n");

  std::printf("== Theorem 4.1 thresholds: d0(eps) for the (3/2 - eps) D "
              "no-copy bound ==\n");
  Table d0_table({"eps", "claimed coeff", "analytic d0"});
  for (double eps : {0.45, 0.4, 0.35, 0.3, 0.25}) {
    d0_table.Row()
        .Cell(eps, 3)
        .Cell(NoCopyCoefficient(eps), 3)
        .Cell(static_cast<std::int64_t>(FindD0NoCopy(eps, 0.7, 33, 1 << 20)));
  }
  d0_table.Print();
  std::printf("\n");
}

void PrintCopyingTable() {
  std::printf("== E12: with-copying lower bounds (Theorems 4.3 / 4.4) ==\n");
  Table table({"eps", "mesh coeff (Thm 4.3)", "torus coeff (Thm 4.4)",
               "premise d0 (delta=0.01)"});
  for (double eps : {0.05, 0.1, 0.2, 0.3}) {
    table.Row()
        .Cell(eps, 3)
        .Cell(CopyMeshCoefficient(eps), 3)
        .Cell(CopyTorusCoefficient(eps), 3)
        .Cell(static_cast<std::int64_t>(FindD0Copying(eps, 0.01, 33)));
  }
  table.Print();
  std::printf("claim: with copying, >= (5/4 - eps) D on meshes and >= "
              "(3/2 - eps) D on tori for d >= d0 — matching CopySort's 5D/4 "
              "and TorusSort's 3D/2 upper bounds (Theorems 3.2/3.3)\n\n");

  // The separation the paper proves: for large d, sorting WITHOUT copying
  // (>= 3/2 D) is strictly harder than CopySort's 5/4 D upper bound.
  std::printf("== copy/no-copy separation (Theorem 4.1 vs Theorem 3.2) ==\n");
  std::printf("  no-copy LB coefficient (eps=0.1): %.3f > CopySort UB 1.25\n\n",
              NoCopyCoefficient(0.1));

  // The broadcast-tree ingredient of the Theorem 4.3 proof sketch: spreading
  // copies far apart costs real bandwidth. If every packet must leave copies
  // `spread` apart, the network needs >= N*spread/links steps just to fan
  // them out — e.g. CopySort's single mirrored copy at ~D/2 distance.
  std::printf("== Theorem 4.3 ingredient: copy fan-out cost (Steiner lower "
              "bound) ==\n");
  Table fan({"network", "copies spread", "step bound N*s/links",
             "vs CopySort's 1.25 D"});
  for (int n : {16, 32, 64}) {
    Topology topo(2, n, Wrap::kMesh);
    const std::int64_t spread = topo.Diameter() / 2;
    fan.Row()
        .Cell("mesh(d=2,n=" + std::to_string(n) + ")")
        .Cell(spread)
        .Cell(CopySpreadStepBound(topo, spread), 1)
        .Cell(1.25 * static_cast<double>(topo.Diameter()), 1);
  }
  fan.Print();
  std::printf("claim: one far copy per packet costs ~N*D/(2*links) ~ n/8 "
              "steps of pure bandwidth at d=2 — affordable; flooding MANY "
              "copies is not, which is what caps the power of copying\n\n");
}

void PrintTheorem42Table() {
  std::printf("== Theorem 4.2: diameter unmatchable without copying for "
              "d >= 5 ==\n");
  Table table({"d", "finite-n witness (n=33)", "asymptotic witness",
               "diameter matchable?"});
  for (int d : {2, 3, 4, 5, 6, 8, 12, 16}) {
    const double asym = BestNoCopyBoundOverDAsymptotic(d);
    table.Row()
        .Cell(static_cast<std::int64_t>(d))
        .Cell(BestNoCopyBoundOverD(d, 33, 0.7), 4)
        .Cell(asym, 4)
        .Cell(asym > 1.0 ? "NO (bound > D)" : "open here");
  }
  table.Print();
  std::printf("paper: not matchable for d >= 5; our conservative capacity "
              "form (entry rate d*S) certifies d >= 6 — the d = 5 case needs "
              "the paper's sharper per-network argument (witness 0.99)\n\n");
}

void PrintCompatibilityTable() {
  std::printf("== compatible indexing schemes (Section 4 definition) ==\n");
  Table table({"scheme", "d", "n", "min joker window w*", "n^(d-1)", "beta*",
               "compatible"});
  struct Row {
    const char* name;
    int d, n, b;
  };
  for (const Row& r : {Row{"row-major", 2, 16, 0}, Row{"snake", 2, 16, 0},
                       Row{"blocked-snake", 2, 16, 4},
                       Row{"row-major", 3, 8, 0}, Row{"snake", 3, 8, 0},
                       Row{"blocked-snake", 3, 8, 2},
                       Row{"morton", 2, 16, 0}, Row{"morton", 3, 8, 0},
                       Row{"hilbert", 2, 16, 0}}) {
    Topology topo(r.d, r.n, Wrap::kMesh);
    auto scheme = MakeIndexing(r.name, r.d, r.n, r.b);
    CompatibilityResult c = CheckCompatibility(topo, *scheme);
    table.Row()
        .Cell(scheme->Name())
        .Cell(static_cast<std::int64_t>(r.d))
        .Cell(static_cast<std::int64_t>(r.n))
        .Cell(c.min_window)
        .Cell(IPow(r.n, r.d - 1))
        .Cell(c.beta, 3)
        .Cell(c.compatible ? "yes" : "NO");
  }
  table.Print();
  std::printf("claim: the paper's schemes need windows ~2 n^(d-1) (beta < 1 "
              "=> lower bounds apply); Morton smears hyperplanes across the "
              "whole range and sits at the edge of the definition\n\n");
}

}  // namespace
}  // namespace mdmesh

int main(int argc, char** argv) {
  mdmesh::Cli cli("bench_lower_bounds",
                  "E10-E12: the Section 4 lower bounds, evaluated exactly");
  mdmesh::AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const mdmesh::OutputFlags flags = mdmesh::GetOutputFlags(cli);
  mdmesh::PrintLemma41Table();
  if (!flags.quick) {
    mdmesh::PrintLemma42Table();
    mdmesh::PrintTheorem42Table();
    mdmesh::PrintCopyingTable();
    mdmesh::PrintCompatibilityTable();
  }
  mdmesh::WriteJsonRecords(flags);
  return 0;
}
