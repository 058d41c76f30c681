// Per-step engine instrumentation: StepSnapshot, the one per-step record
// the engine builds after every synchronous step; the StepProbe interface
// that receives it; and the two standard probes — CongestionTrace, a
// bounded time series of congestion measurements, and ProgressMeter, a
// rate-limited stderr heartbeat.
//
// EngineOptions::probes is a list: one run can attach a congestion trace, a
// heartbeat and live gauges together, and each sees every step, in list
// order, after the flight recorder (obs/flight_recorder.h) has packed the
// same snapshot into its ring. The snapshot carries what the booksim-style
// simulators export per cycle: packets in flight, arrivals, packet-moves
// split per directed dimension link, the step's peak queue, and a
// queue-occupancy histogram. An empty list costs the engine nothing; the
// per-dimension counters are only collected while a probe or a recorder is
// attached, and the histogram only when a probe asks for it.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.h"

namespace mdmesh {

/// One synchronous step, as observed after delivery. Pointers are valid only
/// for the duration of the OnStep call.
struct StepSnapshot {
  std::int64_t step = 0;       ///< 1-based step index within this Route call
  std::int64_t in_flight = 0;  ///< packets not yet at their final destination
  std::int64_t arrivals = 0;   ///< packets that arrived during this step
  std::int64_t moves = 0;      ///< packet-moves across links this step
  int dims = 0;                ///< topology dimension d
  /// Moves per directed dimension link class, 2*dims entries indexed
  /// dim*2 + dir (dir 0 = decreasing, 1 = increasing); null if dims == 0.
  const std::int64_t* dim_dir_moves = nullptr;
  /// Queue-occupancy histogram over all processors (bucket = queue length),
  /// or null when the probe did not request it.
  const Histogram* queue_hist = nullptr;
  /// Processors holding in-flight packets, as tracked by the engine's
  /// sparse active-set path; -1 when the step ran the dense full-mesh
  /// sweep (which does not maintain the set).
  std::int64_t active_procs = -1;
  /// Packets injected this step by a StepInjector (0 on one-shot runs).
  std::int64_t injected = 0;
  /// Peak queue length among the processors this step committed.
  std::int64_t queue_max = 0;
};

class StepProbe {
 public:
  virtual ~StepProbe() = default;

  /// Histograms cost an O(N) pass per step; probes opt in.
  virtual bool WantsQueueHistogram() const { return false; }

  virtual void OnStep(const StepSnapshot& snapshot) = 0;
};

/// Bounded congestion time series. Samples every `stride()` steps; when the
/// buffer fills, every other retained sample is dropped and the stride
/// doubles, so a million-step run still fits in `capacity` samples while
/// covering the whole time axis. Step indices are accumulated across Route
/// calls, so a multi-phase algorithm produces one continuous series.
class CongestionTrace final : public StepProbe {
 public:
  struct Sample {
    std::int64_t step = 0;      ///< cumulative step across all Route calls
    std::int64_t run_step = 0;  ///< step within the Route call that produced it
    std::int64_t in_flight = 0;
    std::int64_t arrivals = 0;
    std::int64_t moves = 0;
    std::int64_t queue_p50 = 0;
    std::int64_t queue_p99 = 0;
    std::int64_t queue_max = 0;
    std::int64_t active_procs = -1;  ///< sparse active-set size (-1: dense)
    std::int64_t injected = 0;       ///< packets injected this step
    std::vector<std::int64_t> dim_dir_moves;  ///< 2*dims entries
  };

  explicit CongestionTrace(std::size_t capacity = 4096);

  bool WantsQueueHistogram() const override { return true; }
  void OnStep(const StepSnapshot& snapshot) override;

  const std::vector<Sample>& samples() const { return samples_; }
  std::int64_t stride() const { return stride_; }
  int dims() const { return dims_; }
  std::int64_t total_steps() const { return tick_; }

  /// CSV dump, one row per retained sample:
  /// step,run_step,in_flight,arrivals,moves,queue_p50,queue_p99,queue_max,
  /// dim0_dec,dim0_inc,dim1_dec,...,active_procs,injected
  void WriteCsv(std::ostream& os) const;

  void Clear();

 private:
  std::size_t capacity_;
  std::int64_t stride_ = 1;
  std::int64_t next_sample_ = 1;  ///< next cumulative step to retain
  std::int64_t tick_ = 0;
  int dims_ = 0;
  std::vector<Sample> samples_;
};

/// Rate-limited stderr heartbeat for long runs: attach it to
/// EngineOptions::probes with the run's step cap (0 = unknown). Emits at
/// most one line per `interval_ms` of wall time, plus a final
/// newline-terminated line on Finish().
///
/// `enabled` defaults to "stderr is a TTY" so redirected output and CI logs
/// are not flooded; pass force=true to emit regardless (tests, --progress).
class ProgressMeter final : public StepProbe {
 public:
  explicit ProgressMeter(std::int64_t step_cap = 0,
                         std::int64_t interval_ms = 500, bool force = false);

  /// True when heartbeat lines will actually be written.
  bool enabled() const { return enabled_; }

  void OnStep(const StepSnapshot& snapshot) override;

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
