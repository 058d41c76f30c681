// Run journal file format: the experiment service's append-only log of run
// transitions (serve/scheduler.h), CRC-framed behind a versioned header in
// the manner of the checkpoint file (ckpt/checkpoint.h).
//
// Layout (all fields little-endian):
//
//   offset  size  field
//        0     8  magic "MDMJRNL1"
//        8     4  format version (currently 1)
//       12     -  frames, each [u32 payload size][u32 CRC-32][payload]
//
// The CRC is the zlib variant (util/crc32.h) over the payload alone, so
// scripts/check_perf_regression.py validate-journal can check a file with
// struct.unpack("<8sI") / ("<II") and binascii.crc32. A frame is appended
// with one write(2); a crash can therefore leave at most one torn frame, at
// the tail, and a reader stops at the first frame that is short or fails
// its CRC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mdmesh {

inline constexpr std::size_t kJournalHeaderSize = 12;
inline constexpr std::size_t kJournalFrameHeaderSize = 8;

/// Appends the 12-byte file header.
void AppendJournalHeader(std::vector<std::uint8_t>* out);

/// Appends one frame around `payload`.
void AppendJournalFrame(std::string_view payload,
                        std::vector<std::uint8_t>* out);

/// What ScanJournal found.
struct JournalScan {
  /// False when the magic or version is not this format's; nothing was
  /// replayed and `stop_reason` says why. A file shorter than the header
  /// is a torn header, not a foreign file: header_ok stays true.
  bool header_ok = true;
  std::size_t frames = 0;       ///< valid frames, in file order
  std::size_t valid_bytes = 0;  ///< header + valid frames
  /// Bytes after the last valid frame (a torn or corrupt tail).
  std::size_t dropped_bytes = 0;
  std::string stop_reason;  ///< why the scan stopped early; "" = clean end
};

/// Walks a journal image, calling `on_frame` with each valid frame's
/// payload in order, and stops at the first frame that is short or fails
/// its CRC. Never reads past `size`.
JournalScan ScanJournal(
    const std::uint8_t* data, std::size_t size,
    const std::function<void(std::string_view payload)>& on_frame);

}  // namespace mdmesh
