// Minimal work-sharing thread pool with a blocking ParallelFor.
//
// The simulation engine's per-step update is embarrassingly parallel over
// processors (each directed link has a unique writer slot), so a simple
// static range split is sufficient. The pool is optional: with 0 or 1
// workers ParallelFor degrades to a plain serial loop, which keeps single
// core machines (and unit tests) free of threading overhead while remaining
// bit-for-bit deterministic at any worker count. The partition is exposed
// through ShardsFor so callers can map a range back to its shard.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mdmesh {

/// Bounded per-worker record of pool dispatch activity, for timeline export
/// (obs/chrome_trace.h renders it as one Perfetto track per worker). Lane 0
/// is the coordinator (serial-mode dispatches and too-small-to-shard loops
/// run inline there); lanes 1..workers are the pool threads. Each worker
/// appends to its own lane with no synchronization — attach/detach and
/// reads must happen while the pool is quiescent (no dispatch in flight).
/// When a lane fills up, further intervals are dropped (counted), so a
/// million-step run cannot grow the log without bound.
class ThreadPoolActivity {
 public:
  struct Interval {
    std::chrono::steady_clock::time_point t0;
    std::chrono::steady_clock::time_point t1;
    std::int64_t begin = 0;   ///< item range [begin, end)
    std::int64_t end = 0;
  };

  explicit ThreadPoolActivity(std::size_t capacity_per_lane = 8192)
      : capacity_(capacity_per_lane) {}

  const std::vector<std::vector<Interval>>& lanes() const { return lanes_; }
  std::int64_t dropped() const { return dropped_; }
  void Clear();

 private:
  friend class ThreadPool;
  void EnsureLanes(std::size_t count);
  void Record(std::size_t lane, const Interval& iv);

  std::size_t capacity_;
  std::vector<std::vector<Interval>> lanes_;
  std::atomic<std::int64_t> dropped_{0};
};

class ThreadPool {
 public:
  /// Creates `workers` persistent threads. 0 means "serial mode".
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// Number of shards a dispatch over `count` items splits into: 1 in
  /// serial mode (no workers, or count too small to be worth waking them),
  /// workers() otherwise. Shard s covers
  /// [s * ceil(count/shards), min(count, (s+1) * ceil(count/shards))).
  unsigned ShardsFor(std::int64_t count) const;

  /// Runs fn(begin, end) over the static ShardsFor partition of [0, count)
  /// and blocks until all chunks finish. fn must be safe to call
  /// concurrently on disjoint ranges. Exceptions in fn terminate (by
  /// design: the simulation kernel is noexcept in practice).
  void ParallelFor(std::int64_t count,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Attaches (or detaches, with nullptr) an activity recorder. Every
  /// subsequent dispatch logs one Interval per executed shard — including
  /// serial/inline execution, which logs into lane 0. Call only while the
  /// pool is quiescent; the recorder must outlive its attachment. A null
  /// recorder (the default) costs one pointer check per dispatch, nothing
  /// per item — the engine's zero-cost observability contract.
  void set_activity(ThreadPoolActivity* activity);
  ThreadPoolActivity* activity() const { return activity_; }

  /// Lifetime dispatch totals: calls to ParallelFor and the items they covered. One relaxed add per *dispatch* (never per
  /// item), so they are always on; live-telemetry publishers surface them
  /// as pool gauges. Reads are racy-but-monotonic snapshots.
  std::int64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }
  std::int64_t items_dispatched() const {
    return items_.load(std::memory_order_relaxed);
  }

  /// Process-wide pool sized from MDMESH_THREADS (default: serial).
  static ThreadPool& Global();

 private:
  void WorkerLoop(unsigned index);
  /// Runs `body()` and, when a recorder is attached, logs it as an Interval
  /// on `lane`.
  template <typename Body>
  void RunLogged(std::size_t lane, std::int64_t begin, std::int64_t end,
                 const Body& body);

  struct Job {
    const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
    std::int64_t count = 0;
    std::uint64_t epoch = 0;
  };

  std::vector<std::thread> threads_;
  ThreadPoolActivity* activity_ = nullptr;
  std::atomic<std::int64_t> dispatches_{0};
  std::atomic<std::int64_t> items_{0};
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  unsigned remaining_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace mdmesh
