#include "net/metrics.h"

#include <algorithm>
#include <sstream>

#include "obs/critical_path.h"
#include "obs/journey.h"

namespace mdmesh {

const char* StallReport::ReasonName() const {
  switch (reason) {
    case StallReason::kWatchdog:
      return "watchdog";
    case StallReason::kInterrupt:
      return "interrupt";
    default:
      return "step_cap";
  }
}

std::string StallReport::ToString() const {
  std::ostringstream os;
  os << "stall[" << ReasonName() << "] at step " << step << ": "
     << stuck_packets << " packet(s) in flight, " << no_progress_steps
     << " trailing no-progress step(s)";
  for (const StuckPacket& pkt : sample) {
    os << "\n  packet " << pkt.id << " at " << pkt.at << " -> " << pkt.dest
       << " (remaining " << pkt.remaining << ")";
    if (pkt.want_dim >= 0) {
      os << " wants dim " << pkt.want_dim << (pkt.want_dir > 0 ? "+" : "-")
         << (pkt.link_dead ? " [link dead]" : " [link alive]");
    } else {
      os << " has no alive outgoing link";
    }
  }
  return os.str();
}

void StallReport::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("reason").String(ReasonName());
  w.Key("step").Int(step);
  w.Key("no_progress_steps").Int(no_progress_steps);
  w.Key("stuck_packets").Int(stuck_packets);
  w.Key("sample").BeginArray();
  for (const StuckPacket& pkt : sample) {
    w.BeginObject();
    w.Key("id").Int(pkt.id);
    w.Key("at").Int(pkt.at);
    w.Key("dest").Int(pkt.dest);
    w.Key("remaining").Int(pkt.remaining);
    w.Key("want_dim").Int(pkt.want_dim);
    w.Key("want_dir").Int(pkt.want_dir);
    w.Key("link_dead").Bool(pkt.link_dead);
    w.EndObject();
  }
  w.EndArray();
  w.Key("blocked_links").BeginArray();
  for (std::int64_t link : blocked_links) w.Int(link);
  w.EndArray();
  if (!recent.empty()) {
    w.Key("recent").BeginArray();
    for (const FlightRecord& rec : recent) rec.WriteJson(w);
    w.EndArray();
  }
  w.EndObject();
}

std::string RouteResult::ToString() const {
  std::ostringstream os;
  os << "steps=" << steps << " packets=" << packets << " moves=" << moves
     << " max_queue=" << max_queue << " max_distance=" << max_distance
     << " max_overshoot=" << max_overshoot;
  if (detours > 0) os << " detours=" << detours;
  if (!completed) {
    os << " INCOMPLETE";
    if (stall_report != nullptr) {
      os << " (" << stall_report->ReasonName() << ")";
    }
  }
  return os.str();
}

void RouteResult::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("steps").Int(steps);
  w.Key("moves").Int(moves);
  w.Key("max_queue").Int(max_queue);
  w.Key("packets").Int(packets);
  w.Key("links").Int(links);
  w.Key("completed").Bool(completed);
  w.Key("link_utilization").Double(LinkUtilization());
  w.Key("max_distance").Int(max_distance);
  w.Key("max_overshoot").Int(max_overshoot);
  w.Key("overshoot_mean")
      .Double(overshoot.count() > 0 ? overshoot.mean() : 0.0);
  w.Key("detours").Int(detours);
  w.Key("sparse_steps").Int(sparse_steps);
  w.Key("peak_active_procs").Int(peak_active_procs);
  if (stall_report != nullptr) {
    w.Key("stall");
    stall_report->WriteJson(w);
  }
  if (manifest != nullptr) {
    w.Key("manifest");
    manifest->WriteJson(w);
  }
  if (journeys != nullptr) {
    w.Key("journeys").BeginObject();
    w.Key("traced_packets").Int(journeys->traced_packets);
    w.Key("events").Int(static_cast<std::int64_t>(journeys->events.size()));
    w.Key("sample_rate").Double(journeys->sample_rate);
    w.Key("sample_seed").UInt(journeys->sample_seed);
    w.Key("truncated").Bool(journeys->truncated);
    w.EndObject();
  }
  if (critical_path != nullptr) {
    w.Key("critical_path");
    critical_path->WriteJson(w);
  }
  w.EndObject();
}

std::string RouteResult::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  WriteJson(w);
  return os.str();
}

void RouteResult::RecordTo(Span& span) const {
  span.RecordRouting(steps, moves, max_queue, max_overshoot);
}

void RouteResult::Accumulate(const RouteResult& phase) {
  steps += phase.steps;
  moves += phase.moves;
  max_queue = std::max(max_queue, phase.max_queue);
  packets = std::max(packets, phase.packets);
  completed = completed && phase.completed;
  max_distance = std::max(max_distance, phase.max_distance);
  max_overshoot = std::max(max_overshoot, phase.max_overshoot);
  overshoot.Merge(phase.overshoot);
  detours += phase.detours;
  sparse_steps += phase.sparse_steps;
  peak_active_procs = std::max(peak_active_procs, phase.peak_active_procs);
  if (stall_report == nullptr) stall_report = phase.stall_report;
  if (manifest == nullptr) manifest = phase.manifest;
  if (journeys == nullptr) journeys = phase.journeys;
  if (critical_path == nullptr) critical_path = phase.critical_path;
}

}  // namespace mdmesh
