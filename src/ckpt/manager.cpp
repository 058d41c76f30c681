#include "ckpt/manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/atomic_file.h"

namespace mdmesh {

namespace {

/// "ckpt-<step>.mdc", step zero-padded so lexical and numeric order agree.
std::string CheckpointName(std::int64_t step) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%012lld.mdc",
                static_cast<long long>(step));
  return buf;
}

bool ParseCheckpointName(const char* name, std::int64_t* step) {
  long long s = 0;
  int consumed = 0;
  if (std::sscanf(name, "ckpt-%12lld.mdc%n", &s, &consumed) != 1) return false;
  if (name[consumed] != '\0') return false;
  *step = s;
  return true;
}

/// Creates `dir` if it is missing. A directory it creates has its name made
/// durable before any checkpoint goes into it.
bool EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) {
    return SyncParentDirectory(dir, nullptr);
  }
  return errno == EEXIST;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointOptions opts)
    : opts_(std::move(opts)), last_save_time_(std::chrono::steady_clock::now()) {
  if (opts_.keep < 1) opts_.keep = 1;
}

bool CheckpointManager::Due(std::int64_t step) {
  if (opts_.every_steps > 0 && step - last_save_step_ >= opts_.every_steps) {
    return true;
  }
  if (opts_.every_seconds > 0.0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - last_save_time_;
    if (elapsed.count() >= opts_.every_seconds) return true;
  }
  return false;
}

void CheckpointManager::Save(const EngineCheckpointState& state,
                             const char* cause) {
  Span span = TraceContext::OpenIf(opts_.trace, "ckpt.save");
  if (!dir_ready_) dir_ready_ = EnsureDir(opts_.dir);

  const std::string path = opts_.dir + "/" + CheckpointName(state.step);
  // The generation the last rotation retired waits under the spare name,
  // which ParseCheckpointName rejects. It becomes this save's temp file,
  // which WriteFileAtomic overwrites in place; before the first rotation
  // there is none (ENOENT).
  const std::string spare = opts_.dir + "/ckpt-spare.tmp";
  std::rename(spare.c_str(), (path + ".tmp").c_str());
  std::string error;
  const CkptStatus status = WriteCheckpointFile(path, state, &error);

  // Cadence clocks advance even on failure: a persistently failing sink
  // (disk full) must not degenerate into retrying every single step.
  last_save_step_ = state.step;
  last_save_time_ = std::chrono::steady_clock::now();

  if (status != CkptStatus::kOk) {
    ++save_failures_;
    last_error_ = error.empty() ? CkptStatusName(status) : error;
    std::fprintf(stderr, "[ckpt] save failed at step %lld (%s): %s\n",
                 static_cast<long long>(state.step), cause,
                 last_error_.c_str());
    if (opts_.metrics != nullptr) {
      opts_.metrics->counter("ckpt.save_failures").Increment();
    }
    return;
  }

  ++saves_;
  last_path_ = path;
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("ckpt.saves").Increment();
    opts_.metrics->gauge("ckpt.last_step").Max(state.step);
  }

  // Rotate: retire the oldest generations beyond `keep`. The file just
  // written is the newest, so it always survives. One retired file is
  // renamed to the spare rather than deleted: freeing a file's blocks is
  // what rotation costs on a filesystem mounted with online discard (about
  // 40 ms an unlink on a virtual disk's ext4 `-o discard`, against under
  // 1 ms for the write and both fsyncs), and the next save reuses them.
  std::vector<CheckpointFileInfo> files = ListCheckpoints(opts_.dir);
  const auto keep = static_cast<std::size_t>(opts_.keep);
  for (std::size_t i = 0; i + keep < files.size(); ++i) {
    if (i > 0 || std::rename(files[i].path.c_str(), spare.c_str()) != 0) {
      std::remove(files[i].path.c_str());
    }
  }
}

std::vector<CheckpointFileInfo> CheckpointManager::ListCheckpoints(
    const std::string& dir) {
  std::vector<CheckpointFileInfo> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* ent = ::readdir(d)) {
    std::int64_t step = 0;
    if (!ParseCheckpointName(ent->d_name, &step)) continue;
    out.push_back({dir + "/" + ent->d_name, step});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const CheckpointFileInfo& a, const CheckpointFileInfo& b) {
              return a.step < b.step;
            });
  return out;
}

CkptStatus CheckpointManager::LoadNewestValid(
    const std::string& dir, EngineCheckpointState* out,
    const std::uint64_t* expected_options_hash, std::string* loaded_path,
    std::string* log) {
  std::vector<CheckpointFileInfo> files = ListCheckpoints(dir);
  CkptStatus newest_status = CkptStatus::kIoError;
  bool first = true;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::string error;
    const CkptStatus status =
        ReadCheckpointFile(it->path, out, expected_options_hash, &error);
    if (status == CkptStatus::kOk) {
      if (loaded_path != nullptr) *loaded_path = it->path;
      return CkptStatus::kOk;
    }
    if (first) {
      newest_status = status;
      first = false;
    }
    if (log != nullptr) {
      *log += it->path;
      *log += ": ";
      *log += CkptStatusName(status);
      if (!error.empty()) {
        *log += " (";
        *log += error;
        *log += ")";
      }
      *log += "\n";
    }
  }
  return newest_status;
}

}  // namespace mdmesh
