#include "util/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace mdmesh {
namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) {
    *error = what + ": " + std::strerror(errno);
  }
}

}  // namespace

bool WriteAll(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool WriteFileAtomic(const std::string& path,
                     std::initializer_list<std::string_view> pieces,
                     std::string* error, DirSync dir_sync) {
  const std::string tmp = path + ".tmp";
  // No O_TRUNC: an existing temp file is overwritten in place and cut to
  // length afterwards, so its blocks are reused instead of freed (see
  // CheckpointManager's rotation).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    SetError(error, "open " + tmp);
    return false;
  }
  std::size_t size = 0;
  for (const std::string_view piece : pieces) {
    if (!WriteAll(fd, piece.data(), piece.size())) {
      SetError(error, "write " + tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    size += piece.size();
  }
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    SetError(error, "truncate " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // Flush to stable storage before the rename: otherwise a crash can leave
  // the new name pointing at not-yet-durable bytes, which is exactly the
  // torn state the temp-then-rename dance exists to rule out.
  if (::fsync(fd) != 0) {
    SetError(error, "fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    SetError(error, "close " + tmp);
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename is a change to the directory: until the directory itself is
  // flushed, a power loss can bring back the old name (or none).
  return dir_sync == DirSync::kDeferred || SyncParentDirectory(path, error);
}

bool SyncDirectory(const std::string& dir, std::string* error) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    SetError(error, "open " + dir);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) SetError(error, "fsync " + dir);
  ::close(fd);
  return ok;
}

bool SyncParentDirectory(const std::string& path, std::string* error) {
  std::filesystem::path p(path);
  if (!p.has_filename()) p = p.parent_path();  // "a/b/" names directory b
  const std::filesystem::path parent = p.parent_path();
  return SyncDirectory(parent.empty() ? "." : parent.string(), error);
}

bool WriteFileAtomic(const std::string& path, const void* data,
                     std::size_t size, std::string* error, DirSync dir_sync) {
  return WriteFileAtomic(
      path, {std::string_view(static_cast<const char*>(data), size)}, error,
      dir_sync);
}

bool WriteFileAtomic(const std::string& path, const std::string& data,
                     std::string* error, DirSync dir_sync) {
  return WriteFileAtomic(path, {std::string_view(data)}, error, dir_sync);
}

}  // namespace mdmesh
