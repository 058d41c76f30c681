// Minimal streaming JSON writer (no external deps), used by the tracing and
// bench-output sinks. Emits RFC 8259 JSON: the writer tracks the container
// stack and inserts commas, so callers only describe structure:
//
//   JsonWriter w(os);
//   w.BeginObject().Key("steps").Int(190).Key("phases").BeginArray()
//    .EndArray().EndObject();
//
// Doubles that are NaN or infinite are emitted as null (JSON has no literal
// for them); all strings are escaped.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mdmesh {

/// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view s);

/// Appends JsonEscape(s) to `out` without building a temporary.
void AppendJsonEscaped(std::string& out, std::string_view s);

class JsonWriter {
 public:
  /// indent = 0 writes compact JSON; > 0 pretty-prints with that many
  /// spaces per nesting level.
  explicit JsonWriter(std::ostream& os, int indent = 0);

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Object key; must be followed by exactly one value or container.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& UInt(std::uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Splices a pre-serialized JSON value verbatim (caller guarantees
  /// validity) — used to nest independently built fragments.
  JsonWriter& Raw(std::string_view json);

  /// True once every opened container has been closed and a value written.
  bool Done() const { return stack_.empty() && wrote_value_; }

 private:
  void BeforeValue();
  void NewlineIndent();

  std::ostream* os_;
  int indent_;
  struct Level {
    bool is_object;
    bool empty = true;
  };
  std::vector<Level> stack_;
  bool after_key_ = false;
  bool wrote_value_ = false;
};

}  // namespace mdmesh
