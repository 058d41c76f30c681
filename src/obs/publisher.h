// Live telemetry publisher: a background thread that snapshots a
// MetricsRegistry on a fixed cadence and exposes it two ways —
//
//   * an embedded POSIX HTTP listener serving Prometheus text exposition at
//     GET /metrics (and the registry's JSON at GET /status), enabled with
//     --metrics-port=N (0 asks the OS for an ephemeral port; port() reports
//     the bound one, which is how parallel tests avoid collisions), and
//   * an atomically-renamed status JSON file (--status-file=F) for
//     environments where opening a port is unwelcome — watchers can
//     `watch cat` it and never observe a torn write.
//
// The publisher only ever *reads* the registry (sharded atomics — no
// coordination with the engine), so attaching it cannot perturb routing;
// the determinism test pins that delivery traces are byte-identical with
// the publisher attached. The HTTP server is deliberately tiny: blocking
// accept with a poll() timeout so Stop() is prompt, one request per
// connection (Connection: close), GET only, and a request head framed up to
// its blank line under one read deadline.
//
// ProgressMeter is the human-facing sibling: a rate-limited stderr
// heartbeat (step, in-flight, steps/sec, ETA against the step cap) shaped
// to slot into EngineOptions::observer. It auto-disables when stderr is not
// a TTY so piped/CI runs stay clean unless forced.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/manifest.h"
#include "obs/registry.h"

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

  /// Deadline for one request head to arrive. A silent or stalled client
  /// holds the publisher thread (and Stop()) for at most this long.
  static constexpr int kRequestTimeoutMs = 1000;

  MetricsPublisher() = default;
  ~MetricsPublisher() { Stop(); }

  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  /// Binds the listener (when requested) and starts the background thread.
  /// Returns false — with a stderr diagnostic, and with no thread running —
  /// if the registry is missing or the port cannot be bound.
  bool Start(const Options& opts);

  /// Stops the thread and closes the listener. Writes one final status-file
  /// snapshot so the file reflects end-of-run state. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound HTTP port (resolves 0 to the OS-assigned port); -1 when HTTP is
  /// disabled or Start has not succeeded.
  int port() const { return port_; }

  /// Snapshots served / status files written so far (tests poll these to
  /// avoid sleeping on the cadence).
  std::int64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::int64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

  /// accept() attempts that hit fd exhaustion (EMFILE/ENFILE) and backed
  /// off instead of dropping the listener.
  std::int64_t accept_backoffs() const {
    return accept_backoffs_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void WriteStatusFile();
  void ServeOne(int client_fd);
  std::string StatusJson() const;

  Options opts_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> snapshots_{0};
  std::atomic<std::int64_t> accept_backoffs_{0};
  int listen_fd_ = -1;
  int port_ = -1;
};

/// Rate-limited stderr heartbeat for long runs. Construct with the run's
/// step cap (0 = unknown), then install Observer() as (or inside)
/// EngineOptions::observer. Emits at most one line per `interval_ms` of
/// wall time, plus a final newline-terminated line on Finish().
///
/// `enabled` defaults to "stderr is a TTY" so redirected output and CI logs
/// are not flooded; pass force=true to emit regardless (tests, --progress).
class ProgressMeter {
 public:
  explicit ProgressMeter(std::int64_t step_cap = 0,
                         std::int64_t interval_ms = 500, bool force = false);

  /// True when heartbeat lines will actually be written.
  bool enabled() const { return enabled_; }

  /// Call once per step: (step, packets in flight, arrivals this step).
  void Step(std::int64_t step, std::int64_t in_flight, std::int64_t arrivals);

  /// Adapter matching EngineOptions::observer.
  std::function<void(std::int64_t, std::int64_t, std::int64_t)> Observer();

  /// Emits a final summary line (if enabled) and stops further output.
  void Finish();

  /// Exposed for tests: the last line that would have been printed.
  const std::string& last_line() const { return last_line_; }
  std::int64_t lines_emitted() const { return lines_; }

  /// True when stderr is an interactive terminal (POSIX isatty).
  static bool StderrIsTty();

 private:
  void Emit(std::int64_t step, std::int64_t in_flight, double steps_per_sec);

  std::int64_t step_cap_;
  std::int64_t interval_ms_;
  bool enabled_;
  bool finished_ = false;
  std::int64_t lines_ = 0;
  std::int64_t last_emit_ms_ = 0;   ///< steady-clock ms of last heartbeat
  std::int64_t last_emit_step_ = 0;
  std::int64_t start_ms_ = 0;
  std::int64_t delivered_total_ = 0;
  std::string last_line_;
};

}  // namespace mdmesh
