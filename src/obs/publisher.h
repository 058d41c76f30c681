// Live telemetry publisher: exposes a MetricsRegistry two ways while a run
// executes —
//
//   * over HTTP, enabled with --metrics-port=N: Prometheus text exposition
//     at GET /metrics and the registry's JSON at GET /status, served by the
//     shared loopback HttpServer (util/http.h), which frames requests,
//     bounds their size and read time, and hardens accept(). Paths match
//     exactly (a query string is ignored); anything else gets 404. Port 0
//     asks the OS for an ephemeral port; port() reports the bound one,
//     which is how parallel tests avoid collisions;
//   * as an atomically-renamed status JSON file (--status-file=F), written
//     by the publisher's own thread on a fixed cadence, for environments
//     where opening a port is unwelcome — watchers can `watch cat` it and
//     never observe a torn write.
//
// The publisher only ever *reads* the registry (sharded atomics — no
// coordination with the engine), so attaching it cannot perturb routing;
// the determinism test pins that delivery traces are byte-identical with
// the publisher attached.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/manifest.h"
#include "obs/registry.h"
#include "util/http.h"

namespace mdmesh {

class MetricsPublisher {
 public:
  struct Options {
    /// Registry to snapshot. Required.
    const MetricsRegistry* registry = nullptr;
    /// TCP port for the HTTP listener: -1 disables HTTP, 0 binds an
    /// ephemeral OS-assigned port, > 0 binds that port (loopback only).
    int port = -1;
    /// Path for the periodic status JSON file; empty disables it.
    std::string status_file;
    /// Snapshot cadence for the status file (the HTTP endpoint renders on
    /// demand and ignores this).
    std::int64_t interval_ms = 1000;
    /// Optional manifest echoed into /status and the status file.
    const RunManifest* manifest = nullptr;
  };

  MetricsPublisher() = default;
  ~MetricsPublisher() { Stop(); }

  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  /// Starts the HTTP server and the status-file thread, each only when
  /// requested. Returns false — with a stderr diagnostic, and with nothing
  /// running — if the registry is missing or the port cannot be bound.
  bool Start(const Options& opts);

  /// Stops the status-file thread and the server. Writes one final
  /// status-file snapshot so the file reflects end-of-run state. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound HTTP port (resolves 0 to the OS-assigned port); -1 when HTTP is
  /// disabled or Start has not succeeded.
  int port() const { return http_.port(); }

  /// Requests answered / status files written so far (tests poll these to
  /// avoid sleeping on the cadence).
  std::int64_t requests_served() const { return http_.requests_served(); }
  std::int64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

  /// accept() attempts that hit fd exhaustion (EMFILE/ENFILE) and backed
  /// off instead of dropping the listener.
  std::int64_t accept_backoffs() const { return http_.accept_backoffs(); }

 private:
  void Run();
  void WriteStatusFile();
  HttpResponse Handle(const HttpRequest& req) const;
  std::string StatusJson() const;

  Options opts_;
  HttpServer http_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mu_
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> snapshots_{0};
};

}  // namespace mdmesh
