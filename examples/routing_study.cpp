// routing_study: the Section 5 two-phase router vs plain greedy on a chosen
// permutation and network, with per-phase measurements.
//
//   $ ./routing_study --perm=transpose --d=2 --n=64
//   $ ./routing_study --perm=random --d=3 --n=16 --torus
//   $ ./routing_study --perm=reversal --d=2 --n=128 --g=8 --randomized
//   $ ./routing_study --perm=transpose --trace --json=run.json --trace-csv=run.csv
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/mdmesh.h"
#include "routing/permutations.h"
#include "util/cli.h"

namespace {

// Compact congestion profile: in-flight packet counts over time, bucketed
// into a fixed-width bar chart.
std::string Sparkline(const std::vector<std::int64_t>& series, int width) {
  static const char* levels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (series.empty()) return "";
  std::int64_t peak = 1;
  for (std::int64_t v : series) peak = std::max(peak, v);
  std::string out;
  const std::size_t n = series.size();
  for (int x = 0; x < width; ++x) {
    const std::size_t at = static_cast<std::size_t>(x) * n / static_cast<std::size_t>(width);
    const auto level = static_cast<std::size_t>(
        series[at] * 7 / peak);
    out += levels[level];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("routing_study",
          "near-diameter permutation routing (Theorems 5.1-5.3) vs greedy");
  cli.AddString("perm", "transpose", "random | reversal | transpose");
  cli.AddInt("d", 2, "dimension");
  cli.AddInt("n", 64, "side length");
  cli.AddInt("g", 4, "blocks per side for the midpoint grid");
  cli.AddBool("torus", false, "wraparound edges");
  cli.AddBool("randomized", false, "random midpoints (Valiant-Brebner style)");
  cli.AddBool("overlap", false, "overlap the two phases (Sec. 6 open question)");
  cli.AddInt("nu32", -1, "midpoint slack nu in n/32 units (-1 = paper default)");
  cli.AddInt("seed", 1, "rng seed");
  cli.AddBool("trace", false, "print the phase-span tree after the run");
  AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const OutputFlags out = GetOutputFlags(cli);

  MeshSpec spec{static_cast<int>(cli.GetInt("d")),
                static_cast<int>(cli.GetInt("n")),
                cli.GetBool("torus") ? Wrap::kTorus : Wrap::kMesh};
  TwoPhaseOptions opts;
  opts.g = static_cast<int>(cli.GetInt("g"));
  opts.randomized = cli.GetBool("randomized");
  opts.overlap = cli.GetBool("overlap");
  opts.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  if (cli.GetInt("nu32") >= 0) {
    opts.nu = static_cast<double>(cli.GetInt("nu32")) * spec.n / 32.0;
  }
  struct InFlightSeries final : StepProbe {
    void OnStep(const StepSnapshot& snap) override {
      values.push_back(snap.in_flight);
    }
    std::vector<std::int64_t> values;
  } in_flight_series;
  opts.engine.probes = {&in_flight_series};
  // One tracer serves every sequential Route call (phase 1, phase 2, and
  // the greedy baseline); each run finalizes its own log, so per-phase
  // critical-path decompositions come out independently.
  JourneyTracer journeys(JourneyOptionsFromFlags(out));
  if (out.WantsJourneys()) opts.engine.journeys = &journeys;
  TraceContext trace_ctx;
  opts.trace = &trace_ctx;
  CongestionTrace congestion;
  if (out.WantsTrace()) opts.engine.probes.push_back(&congestion);

  RoutingRow row = RunRoutingExperiment(spec, cli.GetString("perm"), opts);
  const auto D = static_cast<double>(row.diameter);

  std::printf("%s permutation on %s (D = %lld)\n", row.perm_name.c_str(),
              spec.ToString().c_str(), static_cast<long long>(row.diameter));
  std::printf("two-phase (nu = %.2f, min|S| = %lld):\n", row.two_phase.nu_used,
              static_cast<long long>(row.two_phase.min_s_size));
  std::printf("  phase 1: %lld steps (max distance %lld)\n",
              static_cast<long long>(row.two_phase.phase1.steps),
              static_cast<long long>(row.two_phase.phase1.max_distance));
  std::printf("  phase 2: %lld steps (max distance %lld)\n",
              static_cast<long long>(row.two_phase.phase2.steps),
              static_cast<long long>(row.two_phase.phase2.max_distance));
  std::printf("  total:   %lld steps = %.3f x D (claimed <= (D + %s)/D), %s\n",
              static_cast<long long>(row.two_phase.total_steps),
              static_cast<double>(row.two_phase.total_steps) / D,
              spec.wrap == Wrap::kTorus ? "n/8" : "n",
              row.two_phase.delivered ? "delivered" : "INCOMPLETE");
  std::printf("plain greedy baseline: %lld steps = %.3f x D, max queue %lld\n",
              static_cast<long long>(row.baseline.route.steps),
              row.baseline.steps_over_diameter(),
              static_cast<long long>(row.baseline.route.max_queue));
  const auto print_critical = [](const char* label, const RouteResult& r) {
    if (r.critical_path == nullptr || !r.critical_path->have_last) return;
    const CriticalPathReport& cp = *r.critical_path;
    std::printf(
        "  %s critical path: packet %lld latency %lld = %lld move(s) + "
        "%lld lost-bid + %lld dead-link wait(s); bound gap %lld over lb "
        "%lld\n",
        label, static_cast<long long>(cp.last.id),
        static_cast<long long>(cp.last.latency()),
        static_cast<long long>(cp.last.moves),
        static_cast<long long>(cp.last.waits_lost_bid),
        static_cast<long long>(cp.last.waits_links_dead),
        static_cast<long long>(cp.bound_gap),
        static_cast<long long>(cp.lower_bound));
  };
  if (out.WantsJourneys()) {
    print_critical("greedy", row.baseline.route);
    print_critical("phase 1", row.two_phase.phase1);
    print_critical("phase 2", row.two_phase.phase2);
    // The JSONL artifact holds the greedy baseline's journeys — that is
    // the run whose contention the two-phase router exists to shed.
    if (row.baseline.route.journeys != nullptr) {
      std::ofstream jf = OpenOutputFile(out.journeys, "--journeys");
      WriteJourneysJsonl(*row.baseline.route.journeys, spec.d, jf);
    }
  }
  std::printf("in-flight packets over time (both phases):\n  [%s]\n",
              Sparkline(in_flight_series.values, 64).c_str());
  if (cli.GetBool("trace")) {
    std::printf("\nphase spans:\n%s", trace_ctx.RenderTree(row.diameter).c_str());
  }
  if (out.WantsJson()) {
    BenchJson json("routing_study");
    json.Add(row);
    json.WriteFile(out.json);
  }
  if (out.WantsTrace()) {
    std::ofstream csv = OpenOutputFile(out.trace_csv, "--trace-csv");
    congestion.WriteCsv(csv);
    std::fprintf(stderr, "wrote %zu trace sample(s) to %s\n",
                 congestion.samples().size(), out.trace_csv.c_str());
  }
  return row.two_phase.delivered ? 0 : 1;
}
