#include "serve/scheduler.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "ckpt/manager.h"
#include "meshsim/topology.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/journey.h"
#include "obs/probe.h"
#include "serve/journal.h"
#include "serve/json_value.h"
#include "util/atomic_file.h"
#include "util/thread_pool.h"

namespace mdmesh {

/// An open journal file. Shared between the scheduler and a commit leader's
/// fdatasync, so a compaction that swaps in a new file never closes one a
/// sync is still using.
struct RunScheduler::JournalFile {
  explicit JournalFile(int file) : fd(file) {}
  ~JournalFile() { ::close(fd); }
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  const int fd;
};

namespace {

const char* StallReasonLabel(StallReason reason) {
  switch (reason) {
    case StallReason::kStepCap: return "step_cap";
    case StallReason::kWatchdog: return "watchdog";
    case StallReason::kInterrupt: return "interrupt";
  }
  return "unknown";
}

/// False when `path` cannot be opened. Plain open(2): Start probes two
/// files that a fresh root does not have, and a stream costs more to fail.
bool ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

int OpenForAppend(const std::string& path, int extra_flags) {
  return ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC | extra_flags,
                0644);
}

void WriteRecord(const RunRecord& rec, JsonWriter& w, bool with_result) {
  w.BeginObject();
  w.Key("id").Int(rec.id);
  if (!rec.spec.name.empty()) w.Key("name").String(rec.spec.name);
  w.Key("state").String(RunStateName(rec.state));
  w.Key("fingerprint").UInt(rec.fingerprint);
  w.Key("dedup_hits").Int(rec.dedup_hits);
  w.Key("resume_pending").Bool(rec.resume_pending);
  w.Key("resumed").Bool(rec.resumed);
  if (!rec.error.empty()) w.Key("error").String(rec.error);
  if (rec.evicted) w.Key("evicted").Bool(true);
  if (!rec.artifact_dir.empty()) {
    w.Key("artifact_dir").String(rec.artifact_dir);
    w.Key("artifacts").BeginObject();
    w.Key("result").String(rec.artifact_dir + "/result.json");
    w.Key("metrics").String(rec.artifact_dir + "/metrics.prom");
    w.Key("trace").String(rec.artifact_dir + "/trace.json");
    w.Key("journeys").String(rec.artifact_dir + "/journeys.jsonl");
    w.Key("checkpoints").String(rec.artifact_dir + "/ckpt");
    w.EndObject();
  }
  w.Key("delivery_hash").UInt(rec.delivery_hash);
  w.Key("spec");
  rec.spec.WriteJson(w);
  if (with_result && rec.has_result) {
    w.Key("result");
    rec.result.WriteJson(w);
  }
  w.EndObject();
}

/// Parses one persisted record (a queue.json entry or a journal frame) into
/// `out`, keyed by id, so a later copy of a run replaces an earlier one.
/// Running and interrupted runs come back queued with resume_pending.
bool RestoreRecord(const JsonValue& rv, const std::string& root,
                   const std::string& source,
                   std::map<std::int64_t, RunRecord>* out,
                   std::string* error) {
  RunRecord rec;
  std::string spec_error;
  if (!RunSpec::FromJson(rv["spec"], &rec.spec, &spec_error)) {
    *error = source + ": run " + std::to_string(rv["id"].AsInt()) + ": " +
             spec_error;
    return false;
  }
  rec.id = rv["id"].AsInt();
  if (rec.id < 1) return true;
  RunState state = RunState::kQueued;
  if (!ParseRunState(rv["state"].AsString(), &state)) {
    *error = source + ": run " + std::to_string(rec.id) +
             ": unknown state \"" + rv["state"].AsString() + "\"";
    return false;
  }
  rec.fingerprint = rec.spec.Fingerprint();
  rec.dedup_hits = rv["dedup_hits"].AsInt();
  rec.error = rv["error"].AsString();
  rec.evicted = rv["evicted"].AsBool();
  rec.artifact_dir = rv["artifact_dir"].AsString();
  if (rec.artifact_dir.empty() && !rec.evicted) {
    rec.artifact_dir = root + "/run-" + std::to_string(rec.id);
  }
  rec.delivery_hash = rv["delivery_hash"].AsUInt();
  rec.resumed = rv["resumed"].AsBool();
  switch (state) {
    case RunState::kQueued:
      rec.state = RunState::kQueued;
      rec.resume_pending = rv["resume_pending"].AsBool();
      break;
    case RunState::kRunning:
    case RunState::kInterrupted:
      // Interrupted by drain, or torn down hard while running: either
      // way the newest checkpoint (if any survived) carries the run
      // forward; otherwise it restarts from scratch — same results
      // either way, by the engine's byte-identity contract.
      rec.state = RunState::kQueued;
      rec.resume_pending = true;
      break;
    case RunState::kDone:
    case RunState::kFailed:
      rec.state = state;  // history; full result lives in result.json
      break;
  }
  const std::int64_t id = rec.id;
  (*out)[id] = std::move(rec);
  return true;
}

}  // namespace

const char* RunStateName(RunState state) {
  switch (state) {
    case RunState::kQueued: return "queued";
    case RunState::kRunning: return "running";
    case RunState::kInterrupted: return "interrupted";
    case RunState::kDone: return "done";
    case RunState::kFailed: return "failed";
  }
  return "unknown";
}

bool ParseRunState(const std::string& name, RunState* out) {
  for (RunState s :
       {RunState::kQueued, RunState::kRunning, RunState::kInterrupted,
        RunState::kDone, RunState::kFailed}) {
    if (name == RunStateName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

void WriteRunRecordJson(const RunRecord& rec, JsonWriter& w) {
  WriteRecord(rec, w, /*with_result=*/true);
}

RunScheduler::RunScheduler(const SchedulerOptions& opts) : opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.queue_limit < 1) opts_.queue_limit = 1;
}

RunScheduler::~RunScheduler() { Drain(); }

bool RunScheduler::Start(std::string* error) {
  if (started_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "scheduler already started";
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts_.artifacts_dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + opts_.artifacts_dir + ": " + ec.message();
    }
    return false;
  }
  bool compact = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!RestoreLocked(&compact, error)) return false;
  }
  // Replayed frames fold into a fresh snapshot before anything is
  // appended: a frame appended after a torn tail would never replay.
  if (compact) Compact();
  std::vector<Eviction> evictions;
  std::uint64_t seq = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    seq = EvictOldArtifactsLocked(&evictions);
    // Pre-register the scheduler gauges so the very first /metrics scrape
    // sees them at their true values instead of omitting the series.
    if (opts_.metrics != nullptr) {
      opts_.metrics->gauge("serve.queued")
          .Set(static_cast<std::int64_t>(queue_.size()));
      opts_.metrics->gauge("serve.running").Set(0);
      opts_.metrics->gauge("serve.dedup_hits").Set(dedup_hits_total_);
    }
  }
  Commit(seq);
  ReclaimEvicted(evictions);
  started_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  return true;
}

RunScheduler::SubmitOutcome RunScheduler::Submit(const RunSpec& spec) {
  SubmitOutcome out;
  const std::uint64_t fp = spec.Fingerprint();
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_.load(std::memory_order_acquire) ||
      draining_.load(std::memory_order_acquire)) {
    out.error = "service is draining";
    return out;
  }
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("serve.submitted").Increment();
  }
  const auto dup = dedup_.find(fp);
  if (dup != dedup_.end()) {
    RunRecord& primary = records_[dup->second];
    ++primary.dedup_hits;
    ++dedup_hits_total_;
    out.accepted = true;
    out.deduped = true;
    out.id = primary.id;
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("serve.deduped").Increment();
      opts_.metrics->gauge("serve.dedup_hits").Set(dedup_hits_total_);
    }
    const std::uint64_t seq = JournalLocked(primary);
    lock.unlock();
    Commit(seq);
    return out;
  }
  if (queue_.size() >= opts_.queue_limit) {
    out.error = "queue full (" + std::to_string(opts_.queue_limit) +
                " pending runs)";
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("serve.rejected").Increment();
    }
    return out;
  }
  const std::int64_t id = next_id_++;
  RunRecord rec;
  rec.id = id;
  rec.spec = spec;
  rec.fingerprint = fp;
  rec.artifact_dir = opts_.artifacts_dir + "/run-" + std::to_string(id);
  records_[id] = std::move(rec);
  dedup_[fp] = id;
  EnqueueLocked(id);
  const std::uint64_t seq = JournalLocked(records_[id]);
  out.accepted = true;
  out.id = id;
  lock.unlock();
  cv_.notify_one();
  // Acknowledged only once durable: a worker may start the run meanwhile.
  Commit(seq);
  return out;
}

std::vector<RunRecord> RunScheduler::Snapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<RunRecord> out;
  out.reserve(records_.size());
  for (const auto& kv : records_) out.push_back(kv.second);
  return out;
}

bool RunScheduler::Get(std::int64_t id, RunRecord* out) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  *out = it->second;
  return true;
}

RunScheduler::Counts RunScheduler::CountByState() const {
  std::unique_lock<std::mutex> lock(mu_);
  Counts c;
  for (const auto& kv : records_) {
    switch (kv.second.state) {
      case RunState::kQueued: ++c.queued; break;
      case RunState::kRunning: ++c.running; break;
      case RunState::kInterrupted: ++c.interrupted; break;
      case RunState::kDone: ++c.done; break;
      case RunState::kFailed: ++c.failed; break;
    }
  }
  return c;
}

bool RunScheduler::WaitIdle(std::int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_until(lock, deadline, [this] {
    return queue_.empty() && busy_.load(std::memory_order_acquire) == 0;
  });
}

void RunScheduler::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) return;
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  // Pump the interrupt flag until every in-flight run has aborted: the
  // engine *consumes* the flag when a Route call aborts, so with several
  // runs in flight a single request could be eaten by the first one.
  while (busy_.load(std::memory_order_acquire) > 0) {
    FlightRecorder::RequestInterrupt();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Leave no stale flag behind for the next scheduler in this process.
  FlightRecorder::ClearInterrupt();
  // A drained root restores from queue.json alone.
  bool compact = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    compact = journal_frames_ > 0 || compact_due_;
  }
  if (compact) Compact();
  started_.store(false, std::memory_order_release);
}

void RunScheduler::EnqueueLocked(std::int64_t id) {
  const RunRecord& rec = records_[id];
  queue_.insert({-rec.spec.priority, id});
  if (opts_.metrics != nullptr) {
    opts_.metrics->gauge("serve.queued")
        .Set(static_cast<std::int64_t>(queue_.size()));
  }
}

void RunScheduler::WorkerLoop(int worker_index) {
  // Each worker owns its engine thread pool: ThreadPool is single-job and
  // must not take concurrent ParallelFor calls from several runs.
  ThreadPool pool(static_cast<unsigned>(
      opts_.threads_per_run > 0 ? opts_.threads_per_run : 0));
  (void)worker_index;
  for (;;) {
    std::int64_t id = -1;
    bool try_resume = false;
    RunSpec spec;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return draining_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (draining_.load(std::memory_order_acquire)) return;
      const auto it = queue_.begin();
      id = it->second;
      queue_.erase(it);
      RunRecord& rec = records_[id];
      try_resume = rec.resume_pending;
      rec.resume_pending = false;
      rec.state = RunState::kRunning;
      spec = rec.spec;
      // Journaled but not waited for: a killed server keeps the written
      // frame, and the run restores with resume_pending.
      JournalLocked(rec);
      busy_.fetch_add(1, std::memory_order_acq_rel);
      if (opts_.metrics != nullptr) {
        opts_.metrics->gauge("serve.queued")
            .Set(static_cast<std::int64_t>(queue_.size()));
        opts_.metrics->gauge("serve.running")
            .Set(busy_.load(std::memory_order_acquire));
      }
    }
    Execute(id, spec, try_resume, &pool);
    {
      std::unique_lock<std::mutex> lock(mu_);
      busy_.fetch_sub(1, std::memory_order_acq_rel);
      if (opts_.metrics != nullptr) {
        opts_.metrics->gauge("serve.running")
            .Set(busy_.load(std::memory_order_acquire));
      }
    }
    cv_.notify_all();
  }
}

void RunScheduler::Execute(std::int64_t id, const RunSpec& spec,
                           bool try_resume, ThreadPool* pool) {
  const std::string artifact_dir =
      opts_.artifacts_dir + "/run-" + std::to_string(id);
  std::error_code ec;
  std::string werr;
  if (std::filesystem::create_directories(artifact_dir, ec) &&
      !SyncDirectory(opts_.artifacts_dir, &werr)) {
    std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                 werr.c_str());
  }

  Topology topo(spec.d, spec.n, spec.torus ? Wrap::kTorus : Wrap::kMesh);
  TrafficPattern pattern(topo, spec.pattern, spec.pattern_seed,
                         spec.pattern_opts);

  MetricsRegistry run_metrics;
  CongestionTrace trace;
  CheckpointOptions copts;
  copts.dir = artifact_dir + "/ckpt";
  copts.every_steps = opts_.checkpoint_every_steps;
  copts.keep = opts_.checkpoint_keep;
  copts.metrics = &run_metrics;
  CheckpointManager ckpt(copts);

  EngineOptions eopts = spec.MakeEngineOptions();
  eopts.pool = pool;
  eopts.metrics = &run_metrics;
  eopts.probe = &trace;
  // Journey tracing on every run: the sampler is seeded by the spec
  // fingerprint, so re-submissions (and resumed executions) of the same
  // spec trace the same packet ids.
  JourneyTracer::Options jopts;
  jopts.sample_rate =
      static_cast<double>(opts_.journey_rate_pm) / 1000.0;
  jopts.seed = spec.Fingerprint();
  JourneyTracer journeys(jopts);
  if (opts_.journey_rate_pm > 0) eopts.journeys = &journeys;
  // Always attached: gives every run crash-safe state *and* arms the
  // engine's per-step interrupt polling, which is what makes graceful
  // drain able to stop this run mid-flight.
  eopts.checkpoint = &ckpt;

  EngineCheckpointState resume_state;
  bool resuming = false;
  if (try_resume) {
    std::string loaded_path;
    std::string log;
    const CkptStatus status = CheckpointManager::LoadNewestValid(
        copts.dir, &resume_state, /*expected_options_hash=*/nullptr,
        &loaded_path, &log);
    resuming = status == CkptStatus::kOk;
    if (!resuming && !log.empty()) {
      std::fprintf(stderr, "run %lld: no resumable checkpoint, running "
                           "fresh:\n%s",
                   static_cast<long long>(id), log.c_str());
    }
  }

  WorkloadResult res;
  std::string failure;
  try {
    res = RunOpenLoop(topo, pattern, spec.driver, eopts,
                      resuming ? &resume_state : nullptr);
  } catch (const std::exception& e) {
    failure = e.what();
  }
  if (resuming && failure.empty()) {
    resumed_runs_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("serve.resumed").Increment();
    }
  }

  RunState state;
  std::string error;
  if (!failure.empty()) {
    state = RunState::kFailed;
    error = failure;
  } else if (res.route.stall_report != nullptr &&
             res.route.stall_report->reason == StallReason::kInterrupt) {
    state = RunState::kInterrupted;
  } else if (res.route.stall_report != nullptr) {
    state = RunState::kFailed;
    error = std::string("run aborted: ") +
            StallReasonLabel(res.route.stall_report->reason) + " at step " +
            std::to_string(res.route.stall_report->step);
  } else {
    state = RunState::kDone;
  }

  // Artifact emission for finished runs (done or failed — a failed run's
  // partial counters are exactly what postmortems need). Interrupted runs
  // leave only their checkpoints; they are not results. One directory fsync
  // after the last rename makes every artifact's name durable.
  if (state != RunState::kInterrupted && failure.empty()) {
    {
      std::ostringstream os;
      JsonWriter w(os, 1);
      w.BeginObject();
      w.Key("id").Int(id);
      w.Key("state").String(RunStateName(state));
      w.Key("spec");
      spec.WriteJson(w);
      w.Key("result");
      res.WriteJson(w);
      w.Key("route").Raw(res.route.ToJson());
      w.EndObject();
      os << '\n';
      if (!WriteFileAtomic(artifact_dir + "/result.json", os.str(), &werr,
                           DirSync::kDeferred)) {
        std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                     werr.c_str());
      }
    }
    if (!WriteFileAtomic(artifact_dir + "/metrics.prom",
                         run_metrics.ToPrometheus(), &werr,
                         DirSync::kDeferred)) {
      std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                   werr.c_str());
    }
    {
      RunManifest manifest = res.route.manifest != nullptr
                                 ? *res.route.manifest
                                 : MakeRunManifest(topo, eopts);
      ChromeTraceWriter writer(manifest);
      writer.AddCounters(trace);
      if (!writer.WriteAtomic(artifact_dir + "/trace.json", &werr,
                              DirSync::kDeferred)) {
        std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                     werr.c_str());
      }
    }
    if (res.route.journeys != nullptr) {
      std::ostringstream os;
      WriteJourneysJsonl(*res.route.journeys, topo.dim(), os);
      if (!WriteFileAtomic(artifact_dir + "/journeys.jsonl", os.str(),
                           &werr, DirSync::kDeferred)) {
        std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                     werr.c_str());
      }
    }
    if (!SyncDirectory(artifact_dir, &werr)) {
      std::fprintf(stderr, "run %lld: %s\n", static_cast<long long>(id),
                   werr.c_str());
    }
  }

  std::vector<Eviction> evictions;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RunRecord& rec = records_[id];
    rec.state = state;
    rec.error = error;
    rec.resumed = resuming || rec.resumed;
    if (state == RunState::kInterrupted) {
      // Still resumable: keep the dedup entry and ask the next execution (in
      // this process after a queue re-add, or after a restart) to resume.
      rec.resume_pending = true;
    } else if (failure.empty()) {
      rec.has_result = true;
      rec.result = res;
      rec.delivery_hash = res.delivery_hash;
    }
    if (state == RunState::kFailed) {
      // A failed fingerprint is retryable: drop it from the dedup table so a
      // re-submission runs fresh instead of sharing the failure.
      const auto it = dedup_.find(rec.fingerprint);
      if (it != dedup_.end() && it->second == id) dedup_.erase(it);
    }
    if (opts_.metrics != nullptr) {
      switch (state) {
        case RunState::kDone:
          opts_.metrics->counter("serve.completed").Increment();
          break;
        case RunState::kFailed:
          opts_.metrics->counter("serve.failed").Increment();
          break;
        case RunState::kInterrupted:
          opts_.metrics->counter("serve.interrupted").Increment();
          break;
        default:
          break;
      }
    }
    seq = JournalLocked(rec);
    seq = std::max(seq, EvictOldArtifactsLocked(&evictions));
  }
  Commit(seq);
  ReclaimEvicted(evictions);
}

std::uint64_t RunScheduler::EvictOldArtifactsLocked(
    std::vector<Eviction>* evictions) {
  if (opts_.keep_completed_runs <= 0) return 0;
  // records_ is keyed by ascending id, so this collects completed runs
  // oldest-first; everything past the newest K gets reclaimed.
  std::vector<std::int64_t> finished;
  for (const auto& kv : records_) {
    const RunRecord& rec = kv.second;
    if ((rec.state == RunState::kDone || rec.state == RunState::kFailed) &&
        !rec.evicted && !rec.artifact_dir.empty()) {
      finished.push_back(kv.first);
    }
  }
  const std::size_t keep =
      static_cast<std::size_t>(opts_.keep_completed_runs);
  if (finished.size() <= keep) return 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i + keep < finished.size(); ++i) {
    RunRecord& rec = records_[finished[i]];
    evictions->push_back({rec.id, rec.state, rec.artifact_dir});
    rec.evicted = true;
    rec.artifact_dir.clear();
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("serve.evicted").Increment();
    }
    seq = JournalLocked(rec);
  }
  return seq;
}

void RunScheduler::ReclaimEvicted(const std::vector<Eviction>& evictions) {
  if (evictions.empty()) return;
  std::ofstream log(PathOf("evictions.log"), std::ios::app);
  for (const Eviction& e : evictions) {
    // The record already says evicted; a directory that will not go away
    // is reported and left behind.
    std::error_code ec;
    std::filesystem::remove_all(e.dir, ec);
    if (ec) {
      std::fprintf(stderr, "run %lld: eviction failed: %s\n",
                   static_cast<long long>(e.id), ec.message().c_str());
      continue;
    }
    if (log) {
      log << "evicted run-" << e.id << " state=" << RunStateName(e.state)
          << " dir=" << e.dir << '\n';
    }
  }
}

std::string RunScheduler::PathOf(const char* name) const {
  return opts_.artifacts_dir + "/" + name;
}

std::string RunScheduler::SnapshotLocked() const {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  w.Key("next_id").Int(next_id_);
  w.Key("runs").BeginArray();
  for (const auto& kv : records_) {
    WriteRecord(kv.second, w, /*with_result=*/false);
  }
  w.EndArray();
  w.EndObject();
  os << '\n';
  return os.str();
}

std::uint64_t RunScheduler::JournalLocked(const RunRecord& rec) {
  std::ostringstream payload;
  JsonWriter w(payload);
  WriteRecord(rec, w, /*with_result=*/false);
  std::vector<std::uint8_t> bytes;
  if (journal_ == nullptr) {
    // First transition on this root: create the journal; the commit that
    // follows syncs the directory.
    const std::string path = PathOf(kJournalFile);
    const int fd = OpenForAppend(path, O_CREAT | O_TRUNC);
    if (fd >= 0) {
      journal_ = std::make_shared<JournalFile>(fd);
      AppendJournalHeader(&bytes);
      dir_dirty_ = true;
    } else {
      std::fprintf(stderr, "scheduler: open %s: %s\n", path.c_str(),
                   std::strerror(errno));
    }
  }
  // queue.json exists as soon as there is state: the next commit writes
  // the initial snapshot.
  if (!snapshot_exists_) snapshot_due_ = true;
  const std::size_t frame_at = bytes.size();
  AppendJournalFrame(payload.str(), &bytes);
  if (compacting_) {
    compact_tail_.insert(compact_tail_.end(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(frame_at),
                         bytes.end());
    ++compact_tail_frames_;
  }
  if (journal_ == nullptr || !WriteAll(journal_->fd, bytes.data(),
                                       bytes.size())) {
    if (journal_ != nullptr) {
      std::fprintf(stderr, "scheduler: journal append failed: %s\n",
                   std::strerror(errno));
    }
    // The next commit rewrites snapshot and journal from memory.
    compact_due_ = true;
  }
  ++journal_frames_;
  if (journal_frames_ > kCompactFramesPerRecord * records_.size()) {
    compact_due_ = true;
  }
  return ++appended_seq_;
}

void RunScheduler::Commit(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(commit_mu_);
  while (durable_seq_ < seq) {
    if (committing_) {
      commit_cv_.wait(lock);
    } else {
      Lead(lock);
    }
  }
}

void RunScheduler::Compact() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    compact_due_ = true;
  }
  std::unique_lock<std::mutex> lock(commit_mu_);
  commit_cv_.wait(lock, [this] { return !committing_; });
  Lead(lock);
}

void RunScheduler::Lead(std::unique_lock<std::mutex>& lock) {
  committing_ = true;
  lock.unlock();
  const std::uint64_t durable = SyncJournal();
  lock.lock();
  committing_ = false;
  durable_seq_ = std::max(durable_seq_, durable);
  commit_cv_.notify_all();
}

std::uint64_t RunScheduler::SyncJournal() {
  std::shared_ptr<JournalFile> file;
  std::uint64_t durable = 0;
  std::string snapshot;
  bool compact = false;
  bool sync_dir = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    durable = appended_seq_;
    file = journal_;
    compact = compact_due_;
    if (compact || snapshot_due_) {
      snapshot = SnapshotLocked();
      snapshot_due_ = false;
      snapshot_exists_ = true;
    }
    if (compact) {
      // From here on, appends also collect in compact_tail_ for the
      // replacement journal.
      compact_due_ = false;
      compacting_ = true;
    }
    sync_dir = std::exchange(dir_dirty_, false);
  }
  std::string error;
  if (file != nullptr && ::fdatasync(file->fd) != 0) {
    std::fprintf(stderr, "scheduler: fdatasync %s: %s\n",
                 PathOf(kJournalFile).c_str(), std::strerror(errno));
  }
  // A crash from here on restores correctly from either snapshot: the old
  // journal still holds every frame, and replaying a frame over a snapshot
  // that already has its state changes nothing.
  bool snapshot_ok = true;
  if (!snapshot.empty()) {
    snapshot_ok = WriteFileAtomic(PathOf(kQueueFile), snapshot, &error);
    if (!snapshot_ok) {
      std::fprintf(stderr, "scheduler: snapshot failed: %s\n",
                   error.c_str());
    }
  }
  if (compact && snapshot_ok && ReplaceJournal(&durable)) sync_dir = true;
  if (compact && !snapshot_ok) {
    std::unique_lock<std::mutex> lock(mu_);
    compacting_ = false;
    compact_tail_.clear();
    compact_tail_frames_ = 0;
  }
  if (sync_dir && !SyncDirectory(opts_.artifacts_dir, &error)) {
    std::fprintf(stderr, "scheduler: %s\n", error.c_str());
  }
  return durable;
}

bool RunScheduler::ReplaceJournal(std::uint64_t* durable) {
  const std::string path = PathOf(kJournalFile);
  const std::string tmp = path + ".tmp";
  const int fd = OpenForAppend(tmp, O_CREAT | O_TRUNC);
  std::shared_ptr<JournalFile> fresh =
      fd >= 0 ? std::make_shared<JournalFile>(fd) : nullptr;
  bool ok = fresh != nullptr;
  std::vector<std::uint8_t> chunk;
  AppendJournalHeader(&chunk);
  std::size_t copied = 0;  // bytes of compact_tail_ in the new file
  for (;;) {
    ok = ok && WriteAll(fresh->fd, chunk.data(), chunk.size()) &&
         ::fdatasync(fresh->fd) == 0;
    std::unique_lock<std::mutex> lock(mu_);
    if (ok && copied < compact_tail_.size()) {
      // Frames arrived while the last chunk synced: copy them as well.
      chunk.assign(
          compact_tail_.begin() + static_cast<std::ptrdiff_t>(copied),
          compact_tail_.end());
      copied = compact_tail_.size();
      continue;
    }
    // Every frame appended so far is now durable in the new file; the
    // rename under mu_ makes it the journal before anything else lands.
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (ok) {
      journal_ = fresh;
      journal_frames_ = compact_tail_frames_;
      compact_due_ =
          journal_frames_ > kCompactFramesPerRecord * records_.size();
      *durable = appended_seq_;
    } else {
      std::fprintf(stderr,
                   "scheduler: compaction kept the old journal: %s: %s\n",
                   tmp.c_str(), std::strerror(errno));
      ::unlink(tmp.c_str());
    }
    compacting_ = false;
    compact_tail_.clear();
    compact_tail_frames_ = 0;
    return ok;
  }
}

bool RunScheduler::RestoreLocked(bool* compact, std::string* error) {
  std::string err;
  std::map<std::int64_t, RunRecord> restored;
  std::int64_t next_id = 1;
  const std::string snapshot_path = PathOf(kQueueFile);
  std::string text;
  if (ReadWholeFile(snapshot_path, &text)) {
    snapshot_exists_ = true;
    const JsonParseResult parsed = ParseJson(text);
    if (!parsed.ok) {
      if (error != nullptr) {
        *error = snapshot_path + ": " + parsed.error + " (byte " +
                 std::to_string(parsed.offset) + ")";
      }
      return false;
    }
    const JsonValue& root = parsed.value;
    if (root["next_id"].is_number()) next_id = root["next_id"].AsInt();
    for (const JsonValue& rv : root["runs"].Items()) {
      if (!RestoreRecord(rv, opts_.artifacts_dir, snapshot_path, &restored,
                         &err)) {
        if (error != nullptr) *error = err;
        return false;
      }
    }
  }
  const std::string journal_path = PathOf(kJournalFile);
  if (ReadWholeFile(journal_path, &text)) {
    std::size_t frame = 0;
    const JournalScan scan = ScanJournal(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size(),
        [&](std::string_view payload) {
          ++frame;
          if (!err.empty()) return;
          const JsonParseResult parsed = ParseJson(std::string(payload));
          if (!parsed.ok) {
            err = journal_path + ": frame " + std::to_string(frame) + ": " +
                  parsed.error;
            return;
          }
          RestoreRecord(parsed.value, opts_.artifacts_dir, journal_path,
                        &restored, &err);
        });
    if (!scan.header_ok) err = journal_path + ": " + scan.stop_reason;
    if (!err.empty()) {
      if (error != nullptr) *error = err;
      return false;
    }
    if (scan.dropped_bytes > 0) {
      std::fprintf(stderr,
                   "scheduler: %s: replayed %zu frame(s); dropped %zu "
                   "byte(s) from byte %zu on: %s\n",
                   journal_path.c_str(), scan.frames, scan.dropped_bytes,
                   scan.valid_bytes, scan.stop_reason.c_str());
    }
    *compact = scan.frames > 0 || scan.dropped_bytes > 0;
    if (!*compact) {
      // A clean, empty journal (the state after a compaction) is reused.
      const int fd = OpenForAppend(journal_path, 0);
      if (fd >= 0) {
        journal_ = std::make_shared<JournalFile>(fd);
      } else {
        *compact = true;
      }
    }
  }
  next_id_ = std::max<std::int64_t>(next_id, 1);
  for (auto& kv : restored) {
    RunRecord& rec = kv.second;
    const std::int64_t id = kv.first;
    if (id >= next_id_) next_id_ = id + 1;
    dedup_hits_total_ += rec.dedup_hits;
    const bool enqueue = rec.state == RunState::kQueued;
    const bool dedupable = rec.state != RunState::kFailed;
    const std::uint64_t fp = rec.fingerprint;
    records_[id] = std::move(rec);
    if (dedupable) dedup_[fp] = id;
    if (enqueue) EnqueueLocked(id);
  }
  return true;
}

}  // namespace mdmesh
