// lower_bounds_tour: interactive calculator for the Section 4 machinery —
// diamond counts, Lemma 4.1/4.2, the theorem thresholds, and the
// compatibility of an indexing scheme, for user-chosen parameters.
//
//   $ ./lower_bounds_tour --d=16 --n=33 --gamma=0.5 --beta=0.7
//   $ ./lower_bounds_tour --d=8 --scheme=morton --n=16
#include <cstdio>
#include <utility>

#include "core/mdmesh.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("lower_bounds_tour", "Section 4 lower-bound calculators");
  cli.AddInt("d", 16, "dimension (counting works far beyond simulable sizes)");
  cli.AddInt("n", 33, "side length for exact counting");
  cli.AddDouble("gamma", 0.5, "diamond shrink parameter in (0,1)");
  cli.AddDouble("beta", 0.7, "joker-zone exponent in (0,1)");
  cli.AddString("scheme", "blocked-snake", "indexing scheme to check (needs small d,n)");
  cli.AddInt("b", 0, "block side for blocked schemes (0 = n/2)");
  if (!cli.Parse(argc, argv)) return 2;

  const int d = static_cast<int>(cli.GetInt("d"));
  const int n = static_cast<int>(cli.GetInt("n"));
  const double gamma = cli.GetDouble("gamma");
  const double beta = cli.GetDouble("beta");
  for (const auto& [flag, value] : {std::pair{"gamma", gamma}, {"beta", beta}}) {
    if (!(value > 0.0 && value < 1.0)) {
      std::fprintf(stderr, "--%s must lie in (0,1), got %g\n", flag, value);
      return 2;
    }
  }

  std::printf("-- Lemma 4.1 at d=%d, n=%d, gamma=%.2f --\n", d, n, gamma);
  std::printf("  V/n^d     exact %.3e  vs bound %.3e  %s\n",
              ExactVolumeNormalized(d, n, gamma),
              Lemma41VolumeBoundNormalized(d, gamma),
              ExactVolumeNormalized(d, n, gamma) <=
                      Lemma41VolumeBoundNormalized(d, gamma)
                  ? "(holds)"
                  : "(VIOLATED)");
  std::printf("  S/n^(d-1) exact %.3e  vs bound %.3e  %s\n",
              ExactSurfaceNormalized(d, n, gamma),
              Lemma41SurfaceBoundNormalized(d, gamma),
              ExactSurfaceNormalized(d, n, gamma) <=
                      Lemma41SurfaceBoundNormalized(d, gamma)
                  ? "(holds)"
                  : "(VIOLATED)");

  Lemma42Eval eval = EvalLemma42(d, n, gamma, beta);
  std::printf("-- Lemma 4.2 (no-copy sorting) --\n");
  std::printf("  capacity: %.4f %s %.4f => condition %s\n", eval.lhs,
              eval.lhs < eval.rhs ? "<" : ">=", eval.rhs,
              eval.condition_holds ? "HOLDS" : "fails");
  std::printf("  bound: %.1f steps = %.4f x D\n", eval.bound_steps,
              eval.bound_over_D);
  std::printf("  best over gamma:  finite-n %.4f x D, asymptotic %.4f x D "
              "(Thm 4.2: > 1 means the diameter is unmatchable)\n",
              BestNoCopyBoundOverD(d, n, beta),
              BestNoCopyBoundOverDAsymptotic(d));

  std::printf("-- theorem thresholds --\n");
  for (double eps : {0.4, 0.3, 0.25}) {
    std::printf("  Thm 4.1 (no copy, (3/2-%.2f) D): d0 = %d\n", eps,
                FindD0NoCopy(eps, beta, n, 1 << 20));
  }
  for (double eps : {0.1, 0.2}) {
    std::printf("  Thm 4.3/4.4 premise (delta = 0.01) at eps=%.2f: d0 = %d\n",
                eps, FindD0Copying(eps, 0.01, n));
  }
  std::printf("  Thm 4.5 (selection, (9/16-eps) D): d0(0.05) = %d\n",
              FindD0Selection(0.05));

  // Compatibility of the requested scheme (small sizes only).
  if (d <= 4 && IPow(n, d) <= (1 << 18)) {
    const int b = cli.GetInt("b") > 0 ? static_cast<int>(cli.GetInt("b")) : n / 2;
    try {
      auto scheme = MakeIndexing(cli.GetString("scheme"), d, n, b);
      Topology topo(d, n, Wrap::kMesh);
      CompatibilityResult c = CheckCompatibility(topo, *scheme);
      std::printf("-- compatibility of %s --\n", scheme->Name().c_str());
      std::printf("  minimal joker window w* = %lld (n^(d-1) = %lld), "
                  "beta* = %.3f => %s\n",
                  static_cast<long long>(c.min_window),
                  static_cast<long long>(IPow(n, d - 1)), c.beta,
                  c.compatible ? "compatible (lower bounds apply)"
                               : "NOT compatible");
    } catch (const std::exception& e) {
      std::printf("-- compatibility check skipped: %s --\n", e.what());
    }
  } else {
    std::printf("-- compatibility check skipped (d or n too large to "
                "enumerate) --\n");
  }
  return 0;
}
