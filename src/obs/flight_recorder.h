// Black-box flight recorder: a constant-memory ring buffer of the most
// recent engine step records, so a run that dies — stall watchdog, step
// cap, invariant failure, or a SIGINT/SIGTERM landing mid-campaign — leaves
// behind the step history that explains it instead of only its final state.
//
// The engine (net/engine.h, EngineOptions::recorder) appends each step's
// StepSnapshot (obs/probe.h) — the same record every StepProbe reads — from
// the coordinator thread, before any probe sees it. Append packs it into a
// fixed-size FlightRecord; the ring is allocated once up front and Append
// never allocates or locks, so the recorder is safe to leave attached to
// billion-step runs. When the buffer wraps, the oldest records fall off and
// `dropped()` counts them. Routing behavior is untouched: the determinism
// tests pin that delivery traces are byte-identical with and without a
// recorder attached.
//
// The recorder is more than a sink: the engine stamps its manifest at the
// start of every Route, embeds its tail in the StallReport, and dumps it
// on every abort.
//
// Dumping: Dump()/WriteJson() serialize a self-describing artifact —
// {"manifest": ..., "reason": ..., "step": ..., "records": [...]} — with
// the run manifest heading it, the same convention as every other artifact
// in the repo. Dump writes to a temporary file and renames it into place so
// a half-written artifact is never observed. The engine dumps automatically
// (when a dump path is set) on watchdog abort, step-cap abort, invariant
// failure, and interrupt; `scripts/check_perf_regression.py validate-flight`
// schema-checks the artifact in CI.
//
// Signals: InstallSignalHandlers() registers SIGINT/SIGTERM handlers that
// only set a process-wide flag (the only async-signal-safe thing to do).
// The engine polls InterruptRequested() once per step while a recorder or a
// checkpoint sink is attached, after the step's snapshot reached the
// recorder and every probe, and aborts the Route with
// StallReason::kInterrupt, which triggers the dump on the normal
// (signal-free) code path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/probe.h"

namespace mdmesh {

/// One engine step as the ring stores it: a StepSnapshot packed to a fixed
/// size (the queue histogram is not kept). The engine counts per-direction
/// moves whenever a recorder is attached, so `dir_moves` holds 2 * dims
/// entries for every engine step.
struct FlightRecord {
  /// Per-dimension move counters cover up to this many dimensions (matches
  /// the topology layer's kMaxDim; static_asserted at the engine).
  static constexpr int kMaxDims = 10;

  std::int64_t step = 0;          ///< 1-based step within the Route call
  std::int64_t in_flight = 0;     ///< packets not yet delivered, post-step
  std::int64_t arrivals = 0;      ///< packets that arrived this step
  std::int64_t moves = 0;         ///< link crossings this step
  std::int64_t injected = 0;      ///< injector arrivals this step
  std::int64_t active_procs = -1; ///< sparse active-set size (-1: dense)
  std::int64_t queue_max = 0;     ///< peak queue among processors committed
  std::int32_t dims = 0;          ///< entries used in dir_moves (2 * dims)
  std::int64_t dir_moves[2 * kMaxDims] = {};  ///< indexed dim * 2 + dir

  void WriteJson(JsonWriter& w) const;
};

class FlightRecorder {
 public:
  /// `capacity` records are retained (most recent wins); the buffer is
  /// allocated here, once.
  explicit FlightRecorder(std::size_t capacity = 4096);

  /// Packs one step into the ring, overwriting the oldest record when full.
  /// Coordinator thread only; never allocates.
  void Append(const StepSnapshot& snapshot);

  /// Records currently retained (<= capacity).
  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }
  /// Records appended over the recorder's lifetime.
  std::int64_t total_records() const { return total_; }
  /// Records that fell off the ring (total - retained).
  std::int64_t dropped() const;

  /// The last `k` records (fewer if the ring holds fewer), oldest first.
  std::vector<FlightRecord> Tail(std::size_t k) const;
  /// Most recent record; Append must have run at least once.
  const FlightRecord& Last() const;

  void Clear();

  /// Stamped by the engine at the start of every Route so a dump is
  /// self-describing even when the run dies mid-flight.
  void set_manifest(const RunManifest& m) { manifest_ = m; }
  const RunManifest& manifest() const { return manifest_; }

  /// Where Dump() writes. Empty (the default) disables automatic dumping.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }

  /// {"manifest": ..., "reason": reason, "step": <last step>, "dropped": n,
  ///  "records": [...]} — records oldest first.
  void WriteJson(JsonWriter& w, const std::string& reason) const;
  std::string ToJson(const std::string& reason) const;

  /// Serializes to `dump_path() + ".tmp"` and renames into place (atomic on
  /// POSIX), so readers never see a torn artifact. Returns false (with a
  /// stderr diagnostic) when no path is set or the write fails — a dying
  /// run must not die harder because its black box could not be written.
  bool Dump(const std::string& reason) const;

  // -- Interrupt flag (SIGINT/SIGTERM) --------------------------------------
  //
  // The handlers only set an atomic flag; everything else happens on the
  // engine coordinator at the next step boundary. Install once per process
  // (idempotent); tests drive the flag directly with RequestInterrupt().

  static void InstallSignalHandlers();
  static bool InterruptRequested() {
    return interrupt_flag().load(std::memory_order_relaxed);
  }
  static void RequestInterrupt() {
    interrupt_flag().store(true, std::memory_order_relaxed);
  }
  static void ClearInterrupt() {
    interrupt_flag().store(false, std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool>& interrupt_flag();

  std::vector<FlightRecord> ring_;
  std::size_t head_ = 0;       ///< next write position
  std::int64_t total_ = 0;     ///< lifetime appends
  RunManifest manifest_;
  std::string dump_path_;
};

}  // namespace mdmesh
