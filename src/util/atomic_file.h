// Atomic file replacement: write a temporary sibling, flush it to stable
// storage, then rename it over the destination. A reader (or a crash at any
// instant) sees either the previous complete file or the new complete file,
// never a torn mixture — the invariant the checkpoint store, the
// --status-file snapshot, and the flight-recorder dump all rely on.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

namespace mdmesh {

/// Writes `size` bytes at `data` to `path` via `path + ".tmp"`:
/// write -> fsync -> rename. Returns false on failure with a diagnostic
/// (including the errno text) in *error; `error` may be null. The
/// temporary file is removed on a failed write, so retries start clean.
bool WriteFileAtomic(const std::string& path, const void* data,
                     std::size_t size, std::string* error);

bool WriteFileAtomic(const std::string& path, const std::string& data,
                     std::string* error);

/// Same, for the concatenation of `pieces`, written in order without first
/// joining them into one buffer.
bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::string_view> pieces,
                     std::string* error);

/// fsyncs directory `dir`, so that a file created or renamed in it survives
/// a crash. WriteFileAtomic makes the new bytes durable, not the new name.
bool SyncDirectory(const std::string& dir, std::string* error);

#if !defined(_WIN32)
/// write(2)s all `size` bytes to `fd`, retrying short writes and EINTR.
/// False on failure, with errno set.
bool WriteAll(int fd, const void* data, std::size_t size);
#endif

}  // namespace mdmesh
