#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace mdmesh {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(out, s);
  return out;
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : os_(&os), indent_(indent) {}

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) return;
  *os_ << '\n';
  const auto depth = static_cast<int>(stack_.size());
  for (int i = 0; i < depth * indent_; ++i) *os_ << ' ';
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (!stack_.back().empty) *os_ << ',';
    stack_.back().empty = false;
    NewlineIndent();
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  *os_ << '{';
  stack_.push_back(Level{true});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  const bool was_empty = stack_.back().empty;
  stack_.pop_back();
  if (!was_empty) NewlineIndent();
  *os_ << '}';
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  *os_ << '[';
  stack_.push_back(Level{false});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  const bool was_empty = stack_.back().empty;
  stack_.pop_back();
  if (!was_empty) NewlineIndent();
  *os_ << ']';
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!stack_.empty()) {
    if (!stack_.back().empty) *os_ << ',';
    stack_.back().empty = false;
    NewlineIndent();
  }
  *os_ << '"' << JsonEscape(key) << "\":";
  if (indent_ > 0) *os_ << ' ';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  *os_ << '"' << JsonEscape(value) << '"';
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  *os_ << value;
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  *os_ << value;
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    *os_ << buf;
  } else {
    *os_ << "null";
  }
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  *os_ << (value ? "true" : "false");
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  *os_ << "null";
  wrote_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  *os_ << json;
  wrote_value_ = true;
  return *this;
}

}  // namespace mdmesh
