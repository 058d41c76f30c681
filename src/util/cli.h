// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are an error so typos surface immediately, and so are malformed
// values: an int flag's whole value must be a base-10 int64, a real-valued
// flag's whole value a finite double, and a bool flag takes only
// 1/0/true/false/yes/no. Flag names may be given
// with or without the leading dashes ("json" and "--json" register and look
// up the same flag), so call sites can spell the flag the way the user
// types it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdmesh {

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Registers a flag with a default value and help text. Must be called
  /// before Parse.
  void AddInt(const std::string& name, std::int64_t def, const std::string& help);
  void AddDouble(const std::string& name, double def, const std::string& help);
  void AddString(const std::string& name, const std::string& def, const std::string& help);
  void AddBool(const std::string& name, bool def, const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  bool Parse(int argc, const char* const* argv);

  std::int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  std::string GetString(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  std::string Usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  /// Strips any leading dashes: "--json" -> "json".
  static std::string Normalize(const std::string& name);
  struct Flag {
    Kind kind;
    std::string value;
    std::string def;
    std::string help;
  };
  const Flag& Find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace mdmesh
