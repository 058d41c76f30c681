#include "util/cli.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace mdmesh {
namespace {

/// The whole of `text` as a base-10 int64: no sign but '-', no blanks, no
/// trailing characters, nothing out of range.
bool ParseInt(const std::string& text, std::int64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool IsBoolText(const std::string& v) {
  return v == "1" || v == "0" || v == "true" || v == "false" || v == "yes" ||
         v == "no";
}

}  // namespace

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

std::string Cli::Normalize(const std::string& name) {
  std::size_t start = 0;
  while (start < name.size() && name[start] == '-') ++start;
  return name.substr(start);
}

void Cli::AddInt(const std::string& name, std::int64_t def, const std::string& help) {
  const std::string key = Normalize(name);
  flags_[key] = Flag{Kind::kInt, std::to_string(def), std::to_string(def), help};
  order_.push_back(key);
}

void Cli::AddString(const std::string& name, const std::string& def, const std::string& help) {
  const std::string key = Normalize(name);
  flags_[key] = Flag{Kind::kString, def, def, help};
  order_.push_back(key);
}

void Cli::AddBool(const std::string& name, bool def, const std::string& help) {
  const std::string key = Normalize(name);
  flags_[key] = Flag{Kind::kBool, def ? "1" : "0", def ? "1" : "0", help};
  order_.push_back(key);
}

bool Cli::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s", arg.c_str(),
                   Usage().c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag '--%s'\n%s", name.c_str(), Usage().c_str());
      return false;
    }
    if (!have_value) {
      if (it->second.kind == Kind::kBool) {
        // assign(count, char), not = "1": GCC 12 at -O3 reports a false
        // -Wrestrict overlap inside char_traits for the literal form.
        value.assign(1, '1');
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag '--%s' requires a value\n", name.c_str());
        return false;
      }
    }
    const Kind kind = it->second.kind;
    std::int64_t parsed = 0;
    if ((kind == Kind::kInt && !ParseInt(value, &parsed)) ||
        (kind == Kind::kBool && !IsBoolText(value))) {
      std::fprintf(stderr, "flag '--%s' expects %s, got '%s'\n%s",
                   name.c_str(),
                   kind == Kind::kInt ? "a base-10 64-bit integer"
                                      : "1, 0, true, false, yes or no",
                   value.c_str(), Usage().c_str());
      return false;
    }
    it->second.value = value;
  }
  return true;
}

const Cli::Flag& Cli::Find(const std::string& name, Kind kind) const {
  auto it = flags_.find(Normalize(name));
  if (it == flags_.end() || it->second.kind != kind) {
    throw std::logic_error("flag not registered with this type: " + name);
  }
  return it->second;
}

std::int64_t Cli::GetInt(const std::string& name) const {
  std::int64_t v = 0;
  ParseInt(Find(name, Kind::kInt).value, &v);
  return v;
}

std::string Cli::GetString(const std::string& name) const {
  return Find(name, Kind::kString).value;
}

bool Cli::GetBool(const std::string& name) const {
  const std::string& v = Find(name, Kind::kBool).value;
  return v == "1" || v == "true" || v == "yes";
}

std::string Cli::Usage() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\nflags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.def << ")\n      " << f.help << "\n";
  }
  return os.str();
}

}  // namespace mdmesh
