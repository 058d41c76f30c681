// Chrome Trace Event JSON sink: one artifact that lays the span tree, the
// per-step congestion counters, and the thread-pool worker activity on a
// shared timeline, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. This is the unified view the separate JSON/CSV sinks
// cannot give: phase spans over the congestion curve over worker
// utilization, with the run manifest embedded so the file is
// self-describing.
//
// Track layout (Chrome-trace "processes" are track groups):
//   pid 1  "phases (wall clock)"   one track per top-level algorithm phase;
//                                  B/E duration events at steady_clock
//                                  offsets from the TraceContext origin
//   pid 2  "phases (step clock)"   the same span tree on the simulated-step
//                                  axis (1 simulated step = 1 us of trace
//                                  time), so phase extents can be read in
//                                  steps and compared with the paper's
//                                  cD + o(n) decompositions
//   pid 3  "engine counters"       one counter track per congestion series
//                                  (in_flight, arrivals, moves, queue
//                                  quantiles, per-dim/dir moves, active
//                                  procs, injected), on the step clock
//   pid 4  "thread pool"           one track per worker lane (lane 0 =
//                                  coordinator) with a duration event per
//                                  dispatched shard, wall clock
//   pid 5  "packet journeys"       one async span per traced packet
//                                  (injection to delivery) on the step
//                                  clock, emitted from a JourneyLog
//
// Wall-clock and step-clock track groups share one trace-time axis; the
// step-clock groups are placed at 1 us per step starting at 0, so the two
// clock families are internally consistent but not mutually aligned —
// compare within a family, not across.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "obs/manifest.h"
#include "obs/probe.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/thread_pool.h"

namespace mdmesh {

class ChromeTraceWriter {
 public:
  static constexpr int kPidPhasesWall = 1;
  static constexpr int kPidPhasesSteps = 2;
  static constexpr int kPidCounters = 3;
  static constexpr int kPidWorkers = 4;
  static constexpr int kPidJourneys = 5;

  explicit ChromeTraceWriter(RunManifest manifest);

  /// Emits every span of `ctx` as matched B/E duration events on both the
  /// wall-clock and step-clock phase groups. Each top-level span gets its
  /// own named track; nested spans share the parent's track (Perfetto
  /// nests them by time). Also adopts ctx.origin() as the wall-clock zero
  /// for worker activity added later.
  void AddSpanTree(const TraceContext& ctx);

  /// Emits one counter event per retained congestion sample per series —
  /// in_flight, arrivals, moves, queue_p50/p99/max, injected, active_procs
  /// (dense steps, where the set is not tracked, are skipped), and one
  /// series per directed dimension link class ("moves.dim0-", ...).
  void AddCounters(const CongestionTrace& trace);

  /// Emits one duration event per dispatched shard per worker lane. Wall
  /// clock, aligned to the span tree's origin when AddSpanTree was called
  /// first (otherwise to the earliest recorded interval).
  void AddWorkerActivity(const ThreadPoolActivity& activity);

  /// Emits a thin instant event (e.g. a marker for a fault event or a
  /// phase boundary) on the given track group.
  void AddInstant(const std::string& name, double ts_us, int pid, int tid);

  /// Emits a matched async begin/end pair (ph "b"/"e") keyed by `id` —
  /// async events may overlap freely on one track, which duration events
  /// cannot, so they fit per-packet journey spans. `args_json`, when
  /// non-empty, must be a pre-serialized JSON object; it rides on the
  /// begin event.
  void AddAsyncSpan(const std::string& name, const char* cat, std::int64_t id,
                    double begin_us, double end_us, int pid, int tid,
                    const std::string& args_json = std::string());

  /// Emits one sample on a named counter track (pid kPidCounters). This is
  /// the escape hatch for replaying counter series that did not come from a
  /// live CongestionTrace — e.g. trace_viewer re-exporting a --trace-csv
  /// file.
  void AddCounter(const std::string& series, double ts_us, std::int64_t value);

  std::size_t event_count() const { return event_count_; }
  /// Distinct counter-series names emitted so far.
  std::size_t counter_track_count() const { return counter_names_.size(); }

  /// Writes {"displayTimeUnit", "metadata": {"manifest": ...},
  /// "traceEvents": [...]}.
  void Write(std::ostream& os) const;
  /// Write() to `path` via OpenOutputFile (loud failure, exit 1).
  void WriteFile(const std::string& path) const;
  /// Write() to `path` through WriteFileAtomic (util/atomic_file.h),
  /// straight from the event buffer. False + *error on failure.
  bool WriteAtomic(const std::string& path, std::string* error,
                   DirSync dir_sync = DirSync::kNow) const;

 private:
  class Event;

  void AddMeta(const char* kind, int pid, int tid, const std::string& name);
  void AddDuration(const std::string& name, double begin_us, double end_us,
                   int pid, int tid);
  void AddSpanNode(const TraceContext& ctx, std::size_t node, int tid);
  /// AddCounter without the track-name bookkeeping.
  void AppendCounter(std::string_view series, double ts_us,
                     std::int64_t value);
  /// The document up to the first event, and from the last event on.
  std::string Head() const;
  const char* Tail() const;

  RunManifest manifest_;
  /// Serialized event objects, each after the first preceded by ",\n".
  std::string events_;
  std::size_t event_count_ = 0;
  std::set<std::string> counter_names_;
  bool have_wall_origin_ = false;
  std::chrono::steady_clock::time_point wall_origin_;
};

}  // namespace mdmesh
