// trace_viewer: ASCII heatmap of a per-step congestion trace produced with
// --trace-csv (CongestionTrace::WriteCsv) by any bench or study binary.
//
//   $ ./routing_study --perm=transpose --d=2 --n=32 --trace-csv=trace.csv
//   $ ./trace_viewer --in=trace.csv
//   $ ./trace_viewer --demo          # self-generated transpose trace
//
// Rows are directed dimension links (dim0_dec = packets crossing a dimension-0
// link toward lower coordinates, ...), columns are time buckets; darker cells
// carry more packet-moves. The funnel worst cases (transpose) show up as a
// bright band on one dimension while the others idle.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mdmesh.h"
#include "routing/permutations.h"
#include "util/cli.h"

namespace {

using mdmesh::CongestionTrace;

struct TraceData {
  std::vector<long long> step;
  std::vector<double> in_flight;
  std::vector<double> moves;
  std::vector<double> queue_max;
  std::vector<std::string> dim_labels;         // dim0_dec, dim0_inc, ...
  std::vector<std::vector<double>> dim_moves;  // [label][sample]
};

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  return fields;
}

TraceData ParseCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("trace_viewer: empty trace");
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  TraceData data;
  std::vector<std::size_t> dim_cols;
  std::size_t step_col = 0, in_flight_col = 0, moves_col = 0, qmax_col = 0;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "step") step_col = c;
    if (header[c] == "in_flight") in_flight_col = c;
    if (header[c] == "moves") moves_col = c;
    if (header[c] == "queue_max") qmax_col = c;
    if (header[c].rfind("dim", 0) == 0) {
      data.dim_labels.push_back(header[c]);
      dim_cols.push_back(c);
    }
  }
  data.dim_moves.resize(data.dim_labels.size());
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      throw std::runtime_error("trace_viewer: ragged CSV row");
    }
    data.step.push_back(std::stoll(fields[step_col]));
    data.in_flight.push_back(std::stod(fields[in_flight_col]));
    data.moves.push_back(std::stod(fields[moves_col]));
    data.queue_max.push_back(std::stod(fields[qmax_col]));
    for (std::size_t i = 0; i < dim_cols.size(); ++i) {
      data.dim_moves[i].push_back(std::stod(fields[dim_cols[i]]));
    }
  }
  if (data.step.empty()) throw std::runtime_error("trace_viewer: no samples");
  return data;
}

// Buckets `series` into `width` columns (mean per bucket).
std::vector<double> Bucket(const std::vector<double>& series, int width) {
  const std::size_t n = series.size();
  const auto w = static_cast<std::size_t>(width);
  std::vector<double> out(w, 0.0);
  std::vector<int> counts(w, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t x = i * w / n;
    out[x] += series[i];
    ++counts[x];
  }
  for (std::size_t x = 0; x < w; ++x) {
    if (counts[x] > 0) out[x] /= counts[x];
  }
  return out;
}

std::string HeatRow(const std::vector<double>& bucketed, double peak) {
  static const char kLevels[] = " .:-=+*#@";
  std::string out;
  for (double v : bucketed) {
    const int level =
        peak > 0.0 ? static_cast<int>(v / peak * 8.0 + 0.5) : 0;
    out += kLevels[level < 0 ? 0 : (level > 8 ? 8 : level)];
  }
  return out;
}

void Render(const TraceData& data, int width) {
  std::printf("congestion trace: %zu samples, steps %lld..%lld\n",
              data.step.size(), static_cast<long long>(data.step.front()),
              static_cast<long long>(data.step.back()));

  double peak = 0.0;
  for (const auto& series : data.dim_moves) {
    for (double v : series) peak = std::max(peak, v);
  }
  std::printf("\nlink load per directed dimension (peak %.0f moves/step, "
              "darker = busier):\n", peak);
  for (std::size_t i = 0; i < data.dim_labels.size(); ++i) {
    std::printf("  %-9s |%s|\n", data.dim_labels[i].c_str(),
                HeatRow(Bucket(data.dim_moves[i], width), peak).c_str());
  }

  double flight_peak = 0.0;
  for (double v : data.in_flight) flight_peak = std::max(flight_peak, v);
  std::printf("\nin-flight  |%s| peak %.0f\n",
              HeatRow(Bucket(data.in_flight, width), flight_peak).c_str(),
              flight_peak);
  double q_peak = 0.0;
  for (double v : data.queue_max) q_peak = std::max(q_peak, v);
  std::printf("queue max  |%s| peak %.0f\n",
              HeatRow(Bucket(data.queue_max, width), q_peak).c_str(), q_peak);
}

// Re-exports a parsed CSV trace as Chrome-trace counter tracks so an old
// --trace-csv artifact can be opened in Perfetto without rerunning the
// experiment. Timestamps are the simulated step numbers (1 step = 1 us of
// trace time), matching the live AddCounters layout.
void WritePerfettoTrace(const TraceData& data, const std::string& path) {
  using namespace mdmesh;
  RunManifest manifest;
  manifest.binary = "trace_viewer";
  ChromeTraceWriter writer(manifest);
  for (std::size_t i = 0; i < data.step.size(); ++i) {
    const double ts = static_cast<double>(data.step[i]);
    writer.AddCounter("in_flight", ts,
                      static_cast<std::int64_t>(data.in_flight[i]));
    writer.AddCounter("moves", ts, static_cast<std::int64_t>(data.moves[i]));
    writer.AddCounter("queue_max", ts,
                      static_cast<std::int64_t>(data.queue_max[i]));
    for (std::size_t lbl = 0; lbl < data.dim_labels.size(); ++lbl) {
      writer.AddCounter("moves." + data.dim_labels[lbl], ts,
                        static_cast<std::int64_t>(data.dim_moves[lbl][i]));
    }
  }
  writer.WriteFile(path);
}

// Self-generated demo: the transpose funnel on a small 2D mesh, routed
// greedily — dimension 0 lights up while dimension 1 drains late.
std::string DemoCsv() {
  using namespace mdmesh;
  Topology topo(2, 32, Wrap::kMesh);
  std::vector<ProcId> dest = TransposePermutation(topo);
  CongestionTrace trace;
  GreedyOptions opts;
  opts.engine.probes = {&trace};
  RouteOnePermutation(topo, dest, opts);
  std::ostringstream os;
  trace.WriteCsv(os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("trace_viewer",
          "ASCII heatmap for --trace-csv congestion traces");
  cli.AddString("in", "", "trace CSV produced with --trace-csv");
  cli.AddBool("demo", false, "render a self-generated demo trace instead");
  cli.AddInt("width", 72, "heatmap width in characters");
  AddOutputFlags(cli);
  if (!cli.Parse(argc, argv)) return 2;
  const OutputFlags out = GetOutputFlags(cli);

  const int width = std::max(8, static_cast<int>(cli.GetInt("width")));
  try {
    TraceData data;
    if (cli.GetBool("demo")) {
      std::istringstream is(DemoCsv());
      data = ParseCsv(is);
      std::printf("demo: transpose permutation, greedy routing, "
                  "mesh(d=2,n=32)\n");
    } else {
      const std::string path = cli.GetString("in");
      if (path.empty()) {
        std::fprintf(stderr, "trace_viewer: need --in=<trace.csv> or --demo\n");
        return 2;
      }
      std::ifstream is(path);
      if (!is) {
        std::fprintf(stderr, "trace_viewer: cannot open %s\n", path.c_str());
        return 2;
      }
      data = ParseCsv(is);
    }
    if (out.WantsPerfetto()) WritePerfettoTrace(data, out.perfetto);
    Render(data, width);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
