// RunScheduler: the experiment service's execution core. Owns the bounded
// priority queue of validated RunSpecs, a small pool of worker threads that
// execute them through RunOpenLoop, the fingerprint dedup table, per-run
// artifact emission, and the drain/restore lifecycle:
//
//   submit   → reject (queue full / draining), dedupe (same fingerprint →
//              shared record), or enqueue by (priority desc, id asc)
//   execute  → each worker owns a private ThreadPool (ThreadPool is not
//              reentrant across concurrent ParallelFor callers) and always
//              attaches a CheckpointManager, which both gives crash safety
//              and arms the engine's per-step interrupt polling
//   drain    → stop dequeuing, then pump FlightRecorder::RequestInterrupt()
//              until every in-flight run has aborted through the engine's
//              interrupt path (each abort saves a checkpoint and *consumes*
//              the process-wide flag, hence the pump), then compact the
//              state into queue.json
//   restore  → Start() loads queue.json and replays queue.journal over it:
//              queued entries re-enqueue, running/interrupted entries
//              re-enqueue with resume_pending and continue from their
//              newest valid checkpoint via Engine::Resume — byte-identical
//              to an uninterrupted run
//
// Persistence costs O(1) per transition. Every transition (submit, dedup
// hit, queued → running, done/failed/interrupted, eviction) appends the
// run's whole record as one CRC-framed frame to <root>/queue.journal
// (format: serve/journal.h) with one write(2) under the scheduler lock, so
// a killed process loses nothing it wrote. fdatasync runs after the lock is
// released, as group commit: one commit leader syncs every frame appended
// before it while later committers wait for their sequence number. Submit
// returns (and the HTTP 202 goes out) only once its frame is durable; the
// running frame is not waited for. <root>/queue.json is the snapshot:
// written only by compaction — at Drain, at Start when the journal holds
// frames, and once the journal passes kCompactFramesPerRecord frames per
// record — plus an initial one at the first transition on a fresh root.
// Restore replays the journal over the snapshot, the last frame per id
// winning, and stops at the first torn or corrupt frame. Start on an empty
// root writes nothing.
//
// Determinism note: results do not depend on worker count or per-run thread
// count (the engine's delivery traces are thread-count-invariant), so any
// scheduler configuration reproduces the same delivery_hash for a spec.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "serve/run_spec.h"
#include "workload/driver.h"

namespace mdmesh {

enum class RunState : std::uint8_t {
  kQueued,
  kRunning,
  kInterrupted,  ///< aborted by drain; resumable from its checkpoint
  kDone,
  kFailed,
};

const char* RunStateName(RunState state);
bool ParseRunState(const std::string& name, RunState* out);

struct RunRecord {
  std::int64_t id = -1;
  RunSpec spec;
  RunState state = RunState::kQueued;
  std::uint64_t fingerprint = 0;
  /// Submissions that deduped onto this record (0 = unique so far).
  std::int64_t dedup_hits = 0;
  /// Next execution should try to continue from the newest checkpoint.
  bool resume_pending = false;
  /// This record's last execution continued from a checkpoint.
  bool resumed = false;
  std::string error;         ///< failure reason (kFailed)
  std::string artifact_dir;  ///< per-run artifact directory ("" once evicted)
  /// Artifacts reclaimed by retention GC; the record itself survives as
  /// history (and its in-memory result, when present, stays queryable).
  bool evicted = false;
  bool has_result = false;
  WorkloadResult result;  ///< valid when has_result
  /// Survives restarts even though `result` does not (the full result lives
  /// in <artifact_dir>/result.json): the cross-restart identity key.
  std::uint64_t delivery_hash = 0;
};

/// Serializes a record for GET /runs[/<id>]. The persisted form (queue.json
/// entries and journal frames) has the same shape without `result`, which
/// restore never reads: <artifact_dir>/result.json keeps it.
void WriteRunRecordJson(const RunRecord& rec, JsonWriter& w);

struct SchedulerOptions {
  /// Root for queue.json, queue.journal and the per-run run-<id>/
  /// artifact directories.
  std::string artifacts_dir = "serve-artifacts";
  /// Concurrent runs (worker threads). Each worker owns its own ThreadPool.
  int workers = 2;
  /// Inner engine threads per run (0 = serial engine).
  int threads_per_run = 0;
  /// Queued-run bound; submissions beyond it are rejected (HTTP 429).
  std::size_t queue_limit = 64;
  /// Checkpoint cadence for every run (steps); the abort path saves
  /// regardless, so this only bounds repeated work after a hard crash.
  std::int64_t checkpoint_every_steps = 256;
  int checkpoint_keep = 2;
  /// Artifact retention: keep the newest K completed (done or failed)
  /// run-<id>/ directories and reclaim older ones, logging each eviction
  /// to <artifacts_dir>/evictions.log. 0 = keep everything.
  std::int64_t keep_completed_runs = 0;
  /// Journey-trace sample rate for every run, in per-mille of packet ids
  /// (10 = 1%; 0 disables tracing; 1000 traces every packet). Traced runs
  /// emit a journeys.jsonl artifact next to result.json.
  std::int64_t journey_rate_pm = 10;
  /// Service-level registry (serve.* counters/gauges); may be null.
  MetricsRegistry* metrics = nullptr;
};

class RunScheduler {
 public:
  explicit RunScheduler(const SchedulerOptions& opts);
  ~RunScheduler();

  RunScheduler(const RunScheduler&) = delete;
  RunScheduler& operator=(const RunScheduler&) = delete;

  /// Creates the artifact root, restores queue.json and queue.journal if
  /// present (re-enqueuing interrupted work), and starts the workers. False
  /// + *error on failure.
  bool Start(std::string* error);

  struct SubmitOutcome {
    bool accepted = false;
    bool deduped = false;
    std::int64_t id = -1;   ///< record id (the primary's id when deduped)
    std::string error;      ///< rejection reason when !accepted
  };
  /// Validates nothing (callers validate specs); applies dedup, the queue
  /// bound, and the draining gate.
  SubmitOutcome Submit(const RunSpec& spec);

  /// Snapshot copies (records are small; results include the full
  /// WorkloadResult).
  std::vector<RunRecord> Snapshot() const;
  bool Get(std::int64_t id, RunRecord* out) const;

  struct Counts {
    std::int64_t queued = 0;
    std::int64_t running = 0;
    std::int64_t interrupted = 0;
    std::int64_t done = 0;
    std::int64_t failed = 0;
  };
  Counts CountByState() const;

  /// Graceful shutdown: stops dequeuing, interrupts in-flight runs (each
  /// checkpoints through the engine's abort path), joins the workers, and
  /// compacts the journal into queue.json. Idempotent; the scheduler cannot
  /// be restarted afterwards (construct a new one — that is the restart
  /// path).
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Executions that continued from a checkpoint since Start().
  std::int64_t resumed_runs() const {
    return resumed_runs_.load(std::memory_order_relaxed);
  }

  /// Blocks until no run is queued or in flight (test helper), up to
  /// `timeout_ms`. Returns true when idle was reached.
  bool WaitIdle(std::int64_t timeout_ms);

  static constexpr const char* kQueueFile = "queue.json";
  static constexpr const char* kJournalFile = "queue.journal";
  /// Compaction threshold: the journal is folded into a fresh queue.json
  /// once it holds more than this many frames per record, so replay reads
  /// O(records) frames and compaction costs O(1) per transition, amortized.
  static constexpr std::size_t kCompactFramesPerRecord = 8;

 private:
  struct JournalFile;
  struct Eviction {
    std::int64_t id;
    RunState state;
    std::string dir;
  };

  void WorkerLoop(int worker_index);
  void Execute(std::int64_t id, const RunSpec& spec, bool try_resume,
               ThreadPool* pool);
  /// Loads queue.json and replays queue.journal over it. *compact is set
  /// when the journal held frames or a torn tail: Start must fold it into a
  /// fresh snapshot before anything is appended.
  bool RestoreLocked(bool* compact, std::string* error);
  void EnqueueLocked(std::int64_t id);
  /// Retention GC: marks the oldest completed runs beyond
  /// opts_.keep_completed_runs evicted and journals them (no-op when the
  /// knob is 0). Returns the last frame's sequence number (0: none);
  /// ReclaimEvicted deletes the directories once the lock is released.
  std::uint64_t EvictOldArtifactsLocked(std::vector<Eviction>* evictions);
  void ReclaimEvicted(const std::vector<Eviction>& evictions);

  std::string PathOf(const char* name) const;
  /// queue.json's content: every record in persisted form.
  std::string SnapshotLocked() const;
  /// Appends `rec`'s persisted form as one frame with one write(2), creating
  /// the journal on the first transition. Returns the frame's sequence
  /// number, for Commit.
  std::uint64_t JournalLocked(const RunRecord& rec);
  /// Returns once every frame up to `seq` is durable (group commit).
  void Commit(std::uint64_t seq);
  /// Folds the journal into a fresh snapshot now (Start, Drain).
  void Compact();
  /// Runs one commit pass as the leader; `lock` holds commit_mu_.
  void Lead(std::unique_lock<std::mutex>& lock);
  /// The leader's pass, without any lock held: fdatasync, then the pending
  /// snapshot or compaction. Returns the sequence number now durable.
  std::uint64_t SyncJournal();
  /// Compaction's second half: a fresh journal holding the frames appended
  /// since the snapshot was taken replaces the old one. *durable gets the
  /// sequence number every frame up to which is durable; false (old
  /// journal kept) on failure.
  bool ReplaceJournal(std::uint64_t* durable);

  SchedulerOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::int64_t, RunRecord> records_;
  /// Pending ids ordered by (-priority, id): begin() is the next run.
  std::set<std::pair<int, std::int64_t>> queue_;
  std::unordered_map<std::uint64_t, std::int64_t> dedup_;
  std::vector<std::thread> workers_;
  std::int64_t next_id_ = 1;
  /// Sum of dedup_hits across all records; mirrored to the
  /// serve.dedup_hits gauge so /metrics can plot collapse pressure.
  std::int64_t dedup_hits_total_ = 0;
  // Persistence; guarded by mu_ unless noted. See the header comment.
  std::shared_ptr<JournalFile> journal_;  ///< null until the first frame
  std::uint64_t appended_seq_ = 0;        ///< frames appended, ever
  std::size_t journal_frames_ = 0;        ///< frames in the current file
  bool snapshot_exists_ = false;  ///< queue.json written (or restored)
  bool snapshot_due_ = false;     ///< initial snapshot for the next commit
  bool dir_dirty_ = false;        ///< journal created since the last sync
  bool compact_due_ = false;
  bool compacting_ = false;  ///< a compaction is copying the journal tail
  /// Frames appended while compacting_, for the replacement journal.
  std::vector<std::uint8_t> compact_tail_;
  std::size_t compact_tail_frames_ = 0;
  // Group commit, guarded by commit_mu_ (never held together with mu_).
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::uint64_t durable_seq_ = 0;
  bool committing_ = false;  ///< a leader is syncing

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> busy_{0};
  std::atomic<std::int64_t> resumed_runs_{0};
};

}  // namespace mdmesh
