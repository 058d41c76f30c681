#include "obs/flight_recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <sstream>

#include "util/atomic_file.h"

namespace mdmesh {

void FlightRecord::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("step").Int(step);
  w.Key("in_flight").Int(in_flight);
  w.Key("arrivals").Int(arrivals);
  w.Key("moves").Int(moves);
  w.Key("injected").Int(injected);
  w.Key("active_procs").Int(active_procs);
  w.Key("queue_max").Int(queue_max);
  if (dims > 0) {
    w.Key("dir_moves").BeginArray();
    for (int i = 0; i < 2 * dims; ++i) w.Int(dir_moves[i]);
    w.EndArray();
  }
  w.EndObject();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::Append(const StepSnapshot& snapshot) {
  FlightRecord rec;
  rec.step = snapshot.step;
  rec.in_flight = snapshot.in_flight;
  rec.arrivals = snapshot.arrivals;
  rec.moves = snapshot.moves;
  rec.injected = snapshot.injected;
  rec.active_procs = snapshot.active_procs;
  rec.queue_max = snapshot.queue_max;
  if (snapshot.dim_dir_moves != nullptr) {
    rec.dims = std::min(snapshot.dims, FlightRecord::kMaxDims);
    std::copy_n(snapshot.dim_dir_moves, 2 * rec.dims, rec.dir_moves);
  }
  ring_[head_] = rec;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++total_;
}

std::size_t FlightRecorder::size() const {
  return total_ < static_cast<std::int64_t>(ring_.size())
             ? static_cast<std::size_t>(total_)
             : ring_.size();
}

std::int64_t FlightRecorder::dropped() const {
  return total_ - static_cast<std::int64_t>(size());
}

std::vector<FlightRecord> FlightRecorder::Tail(std::size_t k) const {
  const std::size_t have = size();
  if (k > have) k = have;
  std::vector<FlightRecord> out;
  out.reserve(k);
  // Oldest of the requested tail sits k slots behind the write head.
  std::size_t idx = (head_ + ring_.size() - k) % ring_.size();
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(ring_[idx]);
    idx = idx + 1 == ring_.size() ? 0 : idx + 1;
  }
  return out;
}

const FlightRecord& FlightRecorder::Last() const {
  return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

void FlightRecorder::Clear() {
  head_ = 0;
  total_ = 0;
}

void FlightRecorder::WriteJson(JsonWriter& w, const std::string& reason) const {
  w.BeginObject();
  w.Key("manifest");
  manifest_.WriteJson(w);
  w.Key("reason").String(reason);
  w.Key("step").Int(total_ > 0 ? Last().step : 0);
  w.Key("total_records").Int(total_);
  w.Key("dropped").Int(dropped());
  w.Key("records").BeginArray();
  for (const FlightRecord& rec : Tail(size())) rec.WriteJson(w);
  w.EndArray();
  w.EndObject();
}

std::string FlightRecorder::ToJson(const std::string& reason) const {
  std::ostringstream os;
  JsonWriter w(os);
  WriteJson(w, reason);
  return os.str();
}

bool FlightRecorder::Dump(const std::string& reason) const {
  if (dump_path_.empty()) return false;
  std::ostringstream os;
  JsonWriter w(os, 1);
  WriteJson(w, reason);
  os << '\n';
  // Atomic rename (shared util/atomic_file.h): a crash or a concurrent
  // reader can only ever see the previous complete dump, never a torn one.
  std::string error;
  if (!WriteFileAtomic(dump_path_, os.str(), &error)) {
    std::fprintf(stderr, "flight recorder: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "flight recorder: dumped %zu record(s) to %s (%s)\n",
               size(), dump_path_.c_str(), reason.c_str());
  return true;
}

std::atomic<bool>& FlightRecorder::interrupt_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace {
extern "C" void FlightRecorderSignalHandler(int) {
  FlightRecorder::RequestInterrupt();
}
}  // namespace

void FlightRecorder::InstallSignalHandlers() {
  std::signal(SIGINT, FlightRecorderSignalHandler);
  std::signal(SIGTERM, FlightRecorderSignalHandler);
}

}  // namespace mdmesh
