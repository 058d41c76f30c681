#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "obs/output.h"

namespace mdmesh {
namespace {

/// Serializes one event through a JsonWriter; every event carries ph, ts,
/// pid, and tid so downstream schema checks can be uniform.
class EventBuilder {
 public:
  EventBuilder(const char* ph, double ts_us, int pid, int tid) : w_(os_) {
    w_.BeginObject();
    w_.Key("ph").String(ph);
    w_.Key("ts").Double(ts_us);
    w_.Key("pid").Int(pid);
    w_.Key("tid").Int(tid);
  }

  EventBuilder& Name(const std::string& name) {
    w_.Key("name").String(name);
    return *this;
  }

  EventBuilder& Cat(const char* cat) {
    w_.Key("cat").String(cat);
    return *this;
  }

  EventBuilder& Dur(double us) {
    w_.Key("dur").Double(us);
    return *this;
  }

  EventBuilder& Id(std::int64_t id) {
    w_.Key("id").Int(id);
    return *this;
  }

  EventBuilder& RawArgs(const std::string& args_json) {
    w_.Key("args").Raw(args_json);
    return *this;
  }

  JsonWriter& Args() {
    w_.Key("args").BeginObject();
    args_open_ = true;
    return w_;
  }

  std::string Finish() {
    if (args_open_) w_.EndObject();
    w_.EndObject();
    return os_.str();
  }

 private:
  std::ostringstream os_;
  JsonWriter w_;
  bool args_open_ = false;
};

double ToUs(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

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
  EventBuilder ev("M", 0.0, pid, tid);
  ev.Name(kind);
  JsonWriter& args = ev.Args();
  args.Key("name").String(name);
  events_.push_back(ev.Finish());
}

void ChromeTraceWriter::AddDuration(const std::string& name, double begin_us,
                                    double end_us, int pid, int tid) {
  if (end_us < begin_us) end_us = begin_us;
  EventBuilder begin("B", begin_us, pid, tid);
  begin.Name(name).Cat("phase");
  events_.push_back(begin.Finish());
  EventBuilder end("E", end_us, pid, tid);
  end.Name(name).Cat("phase");
  events_.push_back(end.Finish());
}

void ChromeTraceWriter::AddInstant(const std::string& name, double ts_us,
                                   int pid, int tid) {
  EventBuilder ev("i", ts_us, pid, tid);
  ev.Name(name).Cat("marker");
  JsonWriter& args = ev.Args();
  // Instant scope "t" keeps the marker on its own track instead of
  // spanning the whole group.
  args.Key("s").String("t");
  events_.push_back(ev.Finish());
}

void ChromeTraceWriter::AddAsyncSpan(const std::string& name, const char* cat,
                                     std::int64_t id, double begin_us,
                                     double end_us, int pid, int tid,
                                     const std::string& args_json) {
  if (end_us < begin_us) end_us = begin_us;
  EventBuilder begin("b", begin_us, pid, tid);
  begin.Name(name).Cat(cat).Id(id);
  if (!args_json.empty()) begin.RawArgs(args_json);
  events_.push_back(begin.Finish());
  EventBuilder end("e", end_us, pid, tid);
  end.Name(name).Cat(cat).Id(id);
  events_.push_back(end.Finish());
}

void ChromeTraceWriter::AddCounter(const std::string& series, double ts_us,
                                   std::int64_t value) {
  EventBuilder ev("C", ts_us, kPidCounters, 0);
  ev.Name(series);
  JsonWriter& args = ev.Args();
  args.Key(series).Int(value);
  events_.push_back(ev.Finish());
  counter_names_.insert(series);
}

void ChromeTraceWriter::AddSpanNode(const TraceContext& ctx, std::size_t node,
                                    int tid) {
  const TraceContext::Node& n = ctx.nodes()[node];
  if (n.perf.any()) {
    // Hardware-counter deltas ride on the wall-clock B event's args, where
    // Perfetto's span details pane surfaces them.
    double begin_us = n.begin_ms * 1000.0;
    double end_us = std::max(n.end_ms * 1000.0, begin_us);
    EventBuilder begin("B", begin_us, kPidPhasesWall, tid);
    begin.Name(n.name).Cat("phase");
    JsonWriter& args = begin.Args();
    if (n.perf.cycles >= 0) args.Key("cycles").Int(n.perf.cycles);
    if (n.perf.instructions >= 0) {
      args.Key("instructions").Int(n.perf.instructions);
    }
    if (n.perf.cache_misses >= 0) {
      args.Key("cache_misses").Int(n.perf.cache_misses);
    }
    if (n.perf.branch_misses >= 0) {
      args.Key("branch_misses").Int(n.perf.branch_misses);
    }
    if (n.perf.ipc() >= 0) args.Key("ipc").Double(n.perf.ipc());
    events_.push_back(begin.Finish());
    EventBuilder end("E", end_us, kPidPhasesWall, tid);
    end.Name(n.name).Cat("phase");
    events_.push_back(end.Finish());
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
  for (const CongestionTrace::Sample& s : trace.samples()) {
    const double ts = static_cast<double>(s.step);
    AddCounter("in_flight", ts, s.in_flight);
    AddCounter("arrivals", ts, s.arrivals);
    AddCounter("moves", ts, s.moves);
    AddCounter("queue_p50", ts, s.queue_p50);
    AddCounter("queue_p99", ts, s.queue_p99);
    AddCounter("queue_max", ts, s.queue_max);
    AddCounter("injected", ts, s.injected);
    if (s.active_procs >= 0) AddCounter("active_procs", ts, s.active_procs);
    for (int dim = 0; dim < dims; ++dim) {
      for (int dir = 0; dir < 2; ++dir) {
        const std::size_t idx = static_cast<std::size_t>(dim * 2 + dir);
        if (idx >= s.dim_dir_moves.size()) continue;
        std::ostringstream name;
        name << "moves.dim" << dim << (dir == 0 ? "-" : "+");
        AddCounter(name.str(), ts, s.dim_dir_moves[idx]);
      }
    }
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
      EventBuilder ev("X", begin_us, kPidWorkers, tid);
      ev.Name("parallel_for")
          .Cat("dispatch")
          .Dur(std::max(0.0, end_us - begin_us));
      JsonWriter& args = ev.Args();
      args.Key("items").Int(iv.end - iv.begin);
      args.Key("begin").Int(iv.begin);
      events_.push_back(ev.Finish());
    }
  }
  if (activity.dropped() > 0) {
    AddInstant("activity_log_capped", 0.0, kPidWorkers, 0);
  }
}

void ChromeTraceWriter::Write(std::ostream& os) const {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"manifest\": "
     << manifest_.ToJson() << "},\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    os << events_[i];
    if (i + 1 < events_.size()) os << ',';
    os << '\n';
  }
  os << "]}\n";
}

void ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out = OpenOutputFile(path, "--perfetto");
  Write(out);
  out.flush();
  if (!out) {
    std::cerr << "error: failed writing --perfetto=" << path << '\n';
    std::exit(1);
  }
  std::cerr << "ChromeTraceWriter: wrote " << events_.size()
            << " event(s) to " << path << '\n';
}

}  // namespace mdmesh
