#include "obs/publisher.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "util/atomic_file.h"

namespace mdmesh {

bool MetricsPublisher::Start(const Options& opts) {
  if (running_.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "metrics publisher: already running\n");
    return false;
  }
  if (opts.registry == nullptr) {
    std::fprintf(stderr, "metrics publisher: no registry attached\n");
    return false;
  }
  opts_ = opts;
  if (opts_.port >= 0) {
    std::string error;
    if (!http_.Start(
            opts_.port,
            [this](const HttpRequest& req) { return Handle(req); }, &error)) {
      std::fprintf(stderr, "metrics publisher: %s\n", error.c_str());
      return false;
    }
  }
  stop_ = false;
  running_.store(true, std::memory_order_release);
  if (!opts_.status_file.empty()) thread_ = std::thread([this] { Run(); });
  return true;
}

void MetricsPublisher::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  http_.Stop();
  running_.store(false, std::memory_order_release);
  // Final snapshot so the file shows end-of-run totals, not the last tick.
  WriteStatusFile();
}

HttpResponse MetricsPublisher::Handle(const HttpRequest& req) const {
  if (req.method == "GET" && req.path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            opts_.registry->ToPrometheus()};
  }
  if (req.method == "GET" && req.path == "/status") {
    return {200, "application/json", StatusJson()};
  }
  return {404, "text/plain", "not found\n"};
}

std::string MetricsPublisher::StatusJson() const {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  if (opts_.manifest != nullptr) {
    w.Key("manifest");
    opts_.manifest->WriteJson(w);
  }
  w.Key("metrics");
  opts_.registry->WriteJson(w);
  w.EndObject();
  os << '\n';
  return os.str();
}

void MetricsPublisher::WriteStatusFile() {
  if (opts_.status_file.empty() || opts_.registry == nullptr) return;
  // Atomic rename (shared util/atomic_file.h): `watch cat` and scrapers
  // never observe a half-written snapshot.
  std::string error;
  if (!WriteFileAtomic(opts_.status_file, StatusJson(), &error)) {
    std::fprintf(stderr, "metrics publisher: %s\n", error.c_str());
    return;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsPublisher::Run() {
  const auto interval = std::chrono::milliseconds(
      opts_.interval_ms > 0 ? opts_.interval_ms : 1000);
  std::unique_lock<std::mutex> lock(mu_);
  do {
    WriteStatusFile();
  } while (!wake_.wait_for(lock, interval, [this] { return stop_; }));
}

}  // namespace mdmesh
