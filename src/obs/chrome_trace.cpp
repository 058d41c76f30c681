#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "obs/output.h"
#include "util/atomic_file.h"

namespace mdmesh {
namespace {

void AppendInt(std::string& out, std::int64_t value) {
  char buf[24];
  const std::to_chars_result res =
      std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, res.ptr);
}

/// The bytes JsonWriter::Double writes: "%.10g", and null for NaN or an
/// infinity. "%.10g" prints an integral value below 1e10 in magnitude as
/// that integer (its exponent is below the precision, so no exponent form,
/// and the zero fraction is stripped), so those take the integer path:
/// every step-clock timestamp is one. -0.0 keeps its sign.
void AppendDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  if (std::fabs(value) < 1e10 && value == std::trunc(value)) {
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";
    } else {
      AppendInt(out, static_cast<std::int64_t>(value));
    }
    return;
  }
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "%.10g", value);
  out.append(buf, static_cast<std::size_t>(len));
}

void AppendString(std::string& out, std::string_view value) {
  out += '"';
  AppendJsonEscaped(out, value);
  out += '"';
}

double ToUs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

/// Appends one event object to the writer's buffer, with the bytes a
/// compact JsonWriter would produce. Every event carries ph, ts, pid and
/// tid first so downstream schema checks can be uniform; the other members
/// follow in call order, and the *Arg calls gather into one "args" object.
/// End() closes the event.
class ChromeTraceWriter::Event {
 public:
  Event(ChromeTraceWriter& writer, const char* ph, double ts_us, int pid,
        int tid)
      : out_(writer.events_) {
    if (writer.event_count_++ > 0) out_ += ",\n";
    out_ += "{\"ph\":\"";
    out_ += ph;
    out_ += "\",\"ts\":";
    AppendDouble(out_, ts_us);
    out_ += ",\"pid\":";
    AppendInt(out_, pid);
    out_ += ",\"tid\":";
    AppendInt(out_, tid);
  }

  Event& Name(std::string_view name) {
    out_ += ",\"name\":";
    AppendString(out_, name);
    return *this;
  }
  Event& Cat(const char* cat) {
    out_ += ",\"cat\":";
    AppendString(out_, cat);
    return *this;
  }
  Event& Dur(double us) {
    out_ += ",\"dur\":";
    AppendDouble(out_, us);
    return *this;
  }
  Event& Id(std::int64_t id) {
    out_ += ",\"id\":";
    AppendInt(out_, id);
    return *this;
  }
  /// `args_json` must be a serialized JSON object.
  Event& RawArgs(std::string_view args_json) {
    out_ += ",\"args\":";
    out_ += args_json;
    return *this;
  }
  Event& IntArg(std::string_view key, std::int64_t value) {
    ArgKey(key);
    AppendInt(out_, value);
    return *this;
  }
  Event& DoubleArg(std::string_view key, double value) {
    ArgKey(key);
    AppendDouble(out_, value);
    return *this;
  }
  Event& StringArg(std::string_view key, std::string_view value) {
    ArgKey(key);
    AppendString(out_, value);
    return *this;
  }
  void End() { out_ += args_open_ ? "}}" : "}"; }

 private:
  void ArgKey(std::string_view key) {
    out_ += args_open_ ? "," : ",\"args\":{";
    args_open_ = true;
    AppendString(out_, key);
    out_ += ':';
  }

  std::string& out_;
  bool args_open_ = false;
};

ChromeTraceWriter::ChromeTraceWriter(RunManifest manifest)
    : manifest_(std::move(manifest)) {
  AddMeta("process_name", kPidPhasesWall, 0, "phases (wall clock)");
  AddMeta("process_name", kPidPhasesSteps, 0, "phases (step clock)");
  AddMeta("process_name", kPidCounters, 0, "engine counters");
  AddMeta("process_name", kPidWorkers, 0, "thread pool");
  AddMeta("process_name", kPidJourneys, 0, "packet journeys");
}

void ChromeTraceWriter::AddMeta(const char* kind, int pid, int tid,
                                const std::string& name) {
  Event(*this, "M", 0.0, pid, tid).Name(kind).StringArg("name", name).End();
}

void ChromeTraceWriter::AddDuration(const std::string& name, double begin_us,
                                    double end_us, int pid, int tid) {
  if (end_us < begin_us) end_us = begin_us;
  Event(*this, "B", begin_us, pid, tid).Name(name).Cat("phase").End();
  Event(*this, "E", end_us, pid, tid).Name(name).Cat("phase").End();
}

void ChromeTraceWriter::AddInstant(const std::string& name, double ts_us,
                                   int pid, int tid) {
  // Instant scope "t" keeps the marker on its own track instead of
  // spanning the whole group.
  Event(*this, "i", ts_us, pid, tid)
      .Name(name)
      .Cat("marker")
      .StringArg("s", "t")
      .End();
}

void ChromeTraceWriter::AddAsyncSpan(const std::string& name, const char* cat,
                                     std::int64_t id, double begin_us,
                                     double end_us, int pid, int tid,
                                     const std::string& args_json) {
  if (end_us < begin_us) end_us = begin_us;
  Event begin(*this, "b", begin_us, pid, tid);
  begin.Name(name).Cat(cat).Id(id);
  if (!args_json.empty()) begin.RawArgs(args_json);
  begin.End();
  Event(*this, "e", end_us, pid, tid).Name(name).Cat(cat).Id(id).End();
}

void ChromeTraceWriter::AddCounter(const std::string& series, double ts_us,
                                   std::int64_t value) {
  AppendCounter(series, ts_us, value);
  counter_names_.insert(series);
}

void ChromeTraceWriter::AppendCounter(std::string_view series, double ts_us,
                                      std::int64_t value) {
  Event(*this, "C", ts_us, kPidCounters, 0)
      .Name(series)
      .IntArg(series, value)
      .End();
}

void ChromeTraceWriter::AddSpanNode(const TraceContext& ctx, std::size_t node,
                                    int tid) {
  const TraceContext::Node& n = ctx.nodes()[node];
  if (n.perf.any()) {
    // Hardware-counter deltas ride on the wall-clock B event's args, where
    // Perfetto's span details pane surfaces them.
    double begin_us = n.begin_ms * 1000.0;
    double end_us = std::max(n.end_ms * 1000.0, begin_us);
    Event begin(*this, "B", begin_us, kPidPhasesWall, tid);
    begin.Name(n.name).Cat("phase");
    if (n.perf.cycles >= 0) begin.IntArg("cycles", n.perf.cycles);
    if (n.perf.instructions >= 0) {
      begin.IntArg("instructions", n.perf.instructions);
    }
    if (n.perf.cache_misses >= 0) {
      begin.IntArg("cache_misses", n.perf.cache_misses);
    }
    if (n.perf.branch_misses >= 0) {
      begin.IntArg("branch_misses", n.perf.branch_misses);
    }
    if (n.perf.ipc() >= 0) begin.DoubleArg("ipc", n.perf.ipc());
    begin.End();
    Event(*this, "E", end_us, kPidPhasesWall, tid)
        .Name(n.name)
        .Cat("phase")
        .End();
  } else {
    AddDuration(n.name, n.begin_ms * 1000.0, n.end_ms * 1000.0,
                kPidPhasesWall, tid);
  }
  AddDuration(n.name, static_cast<double>(n.begin_steps),
              static_cast<double>(n.end_steps), kPidPhasesSteps, tid);
  for (const std::size_t child : n.children) AddSpanNode(ctx, child, tid);
}

void ChromeTraceWriter::AddSpanTree(const TraceContext& ctx) {
  if (!have_wall_origin_) {
    wall_origin_ = ctx.origin();
    have_wall_origin_ = true;
  }
  int tid = 1;
  for (const std::size_t top : ctx.nodes()[0].children) {
    const std::string& name = ctx.nodes()[top].name;
    AddMeta("thread_name", kPidPhasesWall, tid, name);
    AddMeta("thread_name", kPidPhasesSteps, tid, name);
    AddSpanNode(ctx, top, tid);
    ++tid;
  }
}

void ChromeTraceWriter::AddCounters(const CongestionTrace& trace) {
  const int dims = trace.dims();
  // Series names are built and registered once, not per sample.
  static constexpr const char* kFixed[] = {
      "in_flight", "arrivals",  "moves",        "queue_p50",
      "queue_p99", "queue_max", "injected",     "active_procs"};
  std::vector<std::string> dim_names;
  for (int dim = 0; dim < dims; ++dim) {
    for (const char* dir : {"-", "+"}) {
      dim_names.push_back("moves.dim" + std::to_string(dim) + dir);
    }
  }
  bool active_seen = false;
  std::size_t dim_series_seen = 0;
  for (const CongestionTrace::Sample& s : trace.samples()) {
    const double ts = static_cast<double>(s.step);
    AppendCounter(kFixed[0], ts, s.in_flight);
    AppendCounter(kFixed[1], ts, s.arrivals);
    AppendCounter(kFixed[2], ts, s.moves);
    AppendCounter(kFixed[3], ts, s.queue_p50);
    AppendCounter(kFixed[4], ts, s.queue_p99);
    AppendCounter(kFixed[5], ts, s.queue_max);
    AppendCounter(kFixed[6], ts, s.injected);
    if (s.active_procs >= 0) {
      AppendCounter(kFixed[7], ts, s.active_procs);
      active_seen = true;
    }
    const std::size_t series =
        std::min(dim_names.size(), s.dim_dir_moves.size());
    for (std::size_t idx = 0; idx < series; ++idx) {
      AppendCounter(dim_names[idx], ts, s.dim_dir_moves[idx]);
    }
    dim_series_seen = std::max(dim_series_seen, series);
  }
  if (trace.samples().empty()) return;
  for (int k = 0; k < 7; ++k) counter_names_.insert(kFixed[k]);
  if (active_seen) counter_names_.insert(kFixed[7]);
  for (std::size_t idx = 0; idx < dim_series_seen; ++idx) {
    counter_names_.insert(dim_names[idx]);
  }
}

void ChromeTraceWriter::AddWorkerActivity(const ThreadPoolActivity& activity) {
  // Without a span tree to align against, zero the axis at the earliest
  // recorded interval.
  if (!have_wall_origin_) {
    bool first = true;
    for (const auto& lane : activity.lanes()) {
      for (const ThreadPoolActivity::Interval& iv : lane) {
        if (first || iv.t0 < wall_origin_) wall_origin_ = iv.t0;
        first = false;
      }
    }
    if (first) return;  // nothing recorded
    have_wall_origin_ = true;
  }
  for (std::size_t lane = 0; lane < activity.lanes().size(); ++lane) {
    const int tid = static_cast<int>(lane);
    AddMeta("thread_name", kPidWorkers, tid,
            lane == 0 ? "coordinator" : "worker " + std::to_string(lane));
    for (const ThreadPoolActivity::Interval& iv : activity.lanes()[lane]) {
      const double begin_us = ToUs(iv.t0 - wall_origin_);
      const double end_us = ToUs(iv.t1 - wall_origin_);
      Event(*this, "X", begin_us, kPidWorkers, tid)
          .Name("parallel_for")
          .Cat("dispatch")
          .Dur(std::max(0.0, end_us - begin_us))
          .IntArg("items", iv.end - iv.begin)
          .IntArg("begin", iv.begin)
          .End();
    }
  }
  if (activity.dropped() > 0) {
    AddInstant("activity_log_capped", 0.0, kPidWorkers, 0);
  }
}

std::string ChromeTraceWriter::Head() const {
  return "{\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"manifest\": " +
         manifest_.ToJson() + "},\n\"traceEvents\": [\n";
}

const char* ChromeTraceWriter::Tail() const {
  return event_count_ > 0 ? "\n]}\n" : "]}\n";
}

void ChromeTraceWriter::Write(std::ostream& os) const {
  os << Head() << events_ << Tail();
}

bool ChromeTraceWriter::WriteAtomic(const std::string& path,
                                    std::string* error,
                                    DirSync dir_sync) const {
  return WriteFileAtomic(path, {Head(), events_, Tail()}, error, dir_sync);
}

void ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out = OpenOutputFile(path, "--perfetto");
  Write(out);
  out.flush();
  if (!out) {
    std::cerr << "error: failed writing --perfetto=" << path << '\n';
    std::exit(1);
  }
  std::cerr << "ChromeTraceWriter: wrote " << event_count_
            << " event(s) to " << path << '\n';
}

}  // namespace mdmesh
