// CheckpointManager: the production CheckpointSink. Decides the cadence
// (step count and/or wall clock), writes each snapshot as a versioned
// CRC-checksummed file via an atomic rename, keeps the last K generations,
// and — on the read side — finds the newest checkpoint that survives full
// validation, falling back generation by generation past torn or corrupt
// files with a log of every rejection.
//
// Recovery story (exercised end-to-end by scripts/crash_drill.py): a
// SIGKILL can land at any instant, including mid-write. The atomic rename
// means the directory only ever contains complete former generations plus
// at most one temp file (an orphaned write, or the retired generation the
// next save overwrites); a bit-flip on disk is caught by the CRC;
// and a checkpoint from a differently-configured run is refused by the
// engine-options hash. In every case LoadNewestValid degrades to the
// newest older generation rather than resuming silently wrong.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "net/engine_state.h"

namespace mdmesh {

class MetricsRegistry;
class TraceContext;

struct CheckpointOptions {
  /// Directory the generations live in (created on first save if missing).
  std::string dir;
  /// Save every N completed steps (0 = no step cadence).
  std::int64_t every_steps = 0;
  /// Save when this much wall time passed since the last save (0 = no
  /// wall-clock cadence). Both cadences may be active; either triggers.
  double every_seconds = 0.0;
  /// Generations to keep; older ones are retired after a successful save
  /// (the oldest renamed to a spare that the next save writes over, the
  /// rest deleted).
  int keep = 3;
  /// Optional: counts saves/failures/bytes under "ckpt.*".
  MetricsRegistry* metrics = nullptr;
  /// Optional: emits a "ckpt.save" span per checkpoint into the timeline.
  TraceContext* trace = nullptr;
};

/// One discovered checkpoint file (ListCheckpoints).
struct CheckpointFileInfo {
  std::string path;
  std::int64_t step = 0;
};

class CheckpointManager : public CheckpointSink {
 public:
  explicit CheckpointManager(CheckpointOptions opts);

  // CheckpointSink.
  bool Due(std::int64_t step) override;
  void Save(const EngineCheckpointState& state, const char* cause) override;

  std::int64_t saves() const { return saves_; }
  std::int64_t save_failures() const { return save_failures_; }
  /// Path of the most recent successful save ("" before the first).
  const std::string& last_path() const { return last_path_; }
  /// Reason of the most recent failed save ("" when none failed yet).
  const std::string& last_error() const { return last_error_; }

  /// All checkpoint files in `dir`, sorted by step ascending. Ignores
  /// non-checkpoint names (temp files, unrelated clutter).
  static std::vector<CheckpointFileInfo> ListCheckpoints(
      const std::string& dir);

  /// Loads the newest checkpoint in `dir` that passes full validation
  /// (framing, CRC, payload decode, and the options hash when
  /// `expected_options_hash` is non-null), walking backwards past corrupt
  /// generations. Every rejected file appends a "<path>: <status>" line to
  /// `log` (if non-null). Returns kOk with `out` and `loaded_path` set, or
  /// the status of the newest candidate when none validate (kIoError when
  /// the directory holds no checkpoints at all).
  static CkptStatus LoadNewestValid(const std::string& dir,
                                    EngineCheckpointState* out,
                                    const std::uint64_t* expected_options_hash,
                                    std::string* loaded_path,
                                    std::string* log);

 private:
  CheckpointOptions opts_;
  std::int64_t last_save_step_ = 0;
  std::chrono::steady_clock::time_point last_save_time_;
  bool dir_ready_ = false;
  std::int64_t saves_ = 0;
  std::int64_t save_failures_ = 0;
  std::string last_path_;
  std::string last_error_;
};

}  // namespace mdmesh
