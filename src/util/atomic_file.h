// Atomic file replacement: write a temporary sibling, flush it to stable
// storage, rename it over the destination, then flush the directory. A
// reader (or a crash at any instant) sees either the previous complete file
// or the new complete file, never a torn mixture, and once the call returns
// true the new file survives a crash under its name — the invariant the
// checkpoint store, the --status-file snapshot, the run artifacts and the
// flight-recorder dump all rely on.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

namespace mdmesh {

/// When WriteFileAtomic fsyncs the containing directory. kDeferred leaves it
/// to the caller, so that several files written into one directory share
/// one SyncDirectory call; until that call their new names may not survive
/// a crash.
enum class DirSync { kNow, kDeferred };

/// Writes `size` bytes at `data` to `path` via `path + ".tmp"`:
/// write -> fsync -> rename -> fsync of the containing directory. Returns
/// false on failure with a diagnostic (including the errno text) in *error;
/// `error` may be null. The temporary file is removed on a failed write, so
/// retries start clean. If only the directory fsync fails, the new file is
/// in place but its name may not survive a crash, and the call returns false.
/// A `path + ".tmp"` that already exists is overwritten in place and cut to
/// length, which keeps its disk blocks.
bool WriteFileAtomic(const std::string& path, const void* data,
                     std::size_t size, std::string* error,
                     DirSync dir_sync = DirSync::kNow);

bool WriteFileAtomic(const std::string& path, const std::string& data,
                     std::string* error, DirSync dir_sync = DirSync::kNow);

/// Same, for the concatenation of `pieces`, written in order without first
/// joining them into one buffer.
bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::string_view> pieces,
                     std::string* error, DirSync dir_sync = DirSync::kNow);

/// fsyncs directory `dir`, so that a file or directory created, renamed or
/// removed in it survives a crash under that name. WriteFileAtomic already
/// does this for the file it writes; call this after creating a directory
/// (on its parent) or a file by other means.
bool SyncDirectory(const std::string& dir, std::string* error);

/// SyncDirectory on the directory that contains `path`, which may name a
/// file or a directory; the working directory when `path` has no directory
/// part.
bool SyncParentDirectory(const std::string& path, std::string* error);

/// write(2)s all `size` bytes to `fd`, retrying short writes and EINTR.
/// False on failure, with errno set.
bool WriteAll(int fd, const void* data, std::size_t size);

}  // namespace mdmesh
