// Minimal little-endian byte codec for checkpoint payloads and injector
// state blobs. Header-only so any layer can serialize without a link
// dependency; fixed-width little-endian on every platform, so a checkpoint
// written on one machine restores on another (and Python tooling can parse
// the framing with struct.unpack("<...")).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace mdmesh {

/// Appends fixed-width little-endian values to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(v); }
  void U16(std::uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const void* data, std::size_t size) { Raw(data, size); }

 private:
  void Raw(const void* data, std::size_t size) {
    // Little-endian hosts only (static_asserted where a payload crosses a
    // file boundary); every target this repo builds on qualifies.
    // resize + memcpy rather than vector::insert, whose inlined copy GCC 12
    // at -O3 misreads as overflowing a small buffer (-Wstringop-overflow,
    // -Warray-bounds).
    if (size == 0) return;
    const std::size_t at = out_->size();
    out_->resize(at + size);
    std::memcpy(out_->data() + at, data, size);
  }

  std::vector<std::uint8_t>* out_;
};

/// Reads fixed-width little-endian values back. Out-of-bounds reads flip
/// `ok()` to false and return zeros — callers check once at the end instead
/// of per field, and a truncated buffer can never read past its end.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  std::uint8_t U8() {
    std::uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::uint16_t U16() {
    std::uint16_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  void Bytes(void* out, std::size_t size) { Raw(out, size); }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  /// True when every byte was consumed and no read ran past the end.
  bool exhausted() const { return ok_ && p_ == end_; }

 private:
  void Raw(void* out, std::size_t size) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < size) {
      ok_ = false;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, p_, size);
    p_ += size;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace mdmesh
