#include "serve/journal.h"

#include <cstring>

#include "util/codec.h"
#include "util/crc32.h"

namespace mdmesh {
namespace {

constexpr char kMagic[8] = {'M', 'D', 'M', 'J', 'R', 'N', 'L', '1'};
constexpr std::uint32_t kFormatVersion = 1;

}  // namespace

void AppendJournalHeader(std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.Bytes(kMagic, sizeof(kMagic));
  w.U32(kFormatVersion);
}

void AppendJournalFrame(std::string_view payload,
                        std::vector<std::uint8_t>* out) {
  ByteWriter w(out);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  w.Bytes(payload.data(), payload.size());
}

JournalScan ScanJournal(
    const std::uint8_t* data, std::size_t size,
    const std::function<void(std::string_view payload)>& on_frame) {
  JournalScan scan;
  if (size < kJournalHeaderSize) {
    scan.dropped_bytes = size;
    scan.stop_reason = "torn header (" + std::to_string(size) + " of " +
                       std::to_string(kJournalHeaderSize) + " bytes)";
    return scan;
  }
  ByteReader header(data, kJournalHeaderSize);
  char magic[sizeof(kMagic)];
  header.Bytes(magic, sizeof(magic));
  const std::uint32_t version = header.U32();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    scan.header_ok = false;
    scan.stop_reason = "not a run journal (bad magic)";
    return scan;
  }
  if (version != kFormatVersion) {
    scan.header_ok = false;
    scan.stop_reason = "journal format version " + std::to_string(version) +
                       ", expected " + std::to_string(kFormatVersion);
    return scan;
  }
  std::size_t pos = kJournalHeaderSize;
  while (pos < size) {
    if (size - pos < kJournalFrameHeaderSize) {
      scan.stop_reason = "torn frame header";
      break;
    }
    ByteReader frame(data + pos, kJournalFrameHeaderSize);
    const std::uint32_t len = frame.U32();
    const std::uint32_t crc = frame.U32();
    if (size - pos - kJournalFrameHeaderSize < len) {
      scan.stop_reason = "torn frame (" + std::to_string(len) +
                         "-byte payload, " +
                         std::to_string(size - pos - kJournalFrameHeaderSize) +
                         " on disk)";
      break;
    }
    const std::uint8_t* payload = data + pos + kJournalFrameHeaderSize;
    if (Crc32(payload, len) != crc) {
      scan.stop_reason = "frame CRC mismatch";
      break;
    }
    on_frame(std::string_view(reinterpret_cast<const char*>(payload), len));
    ++scan.frames;
    pos += kJournalFrameHeaderSize + len;
  }
  scan.valid_bytes = pos;
  scan.dropped_bytes = size - pos;
  return scan;
}

}  // namespace mdmesh
