#include "serve/run_spec.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "meshsim/topology.h"

namespace mdmesh {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Mix(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xffu;
    *h *= kFnvPrime;
  }
}

void MixDouble(std::uint64_t* h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(h, bits);
}

// Field readers: each checks the member's JSON type, converts, and reports
// a path-qualified error ("driver.rate: expected a number") so a rejected
// request names the exact field.
bool ReadInt(const JsonValue& obj, const char* section, const char* key,
             std::int64_t* out, std::string* error) {
  const JsonValue& v = obj[key];
  if (v.is_null()) return true;  // keep default
  if (!v.is_number()) {
    *error = std::string(section) + "." + key + ": expected a number";
    return false;
  }
  *out = v.AsInt();
  return true;
}

bool ReadUInt(const JsonValue& obj, const char* section, const char* key,
              std::uint64_t* out, std::string* error) {
  const JsonValue& v = obj[key];
  if (v.is_null()) return true;
  if (!v.is_number()) {
    *error = std::string(section) + "." + key + ": expected a number";
    return false;
  }
  *out = v.AsUInt();
  return true;
}

bool ReadDouble(const JsonValue& obj, const char* section, const char* key,
                double* out, std::string* error) {
  const JsonValue& v = obj[key];
  if (v.is_null()) return true;
  if (!v.is_number()) {
    *error = std::string(section) + "." + key + ": expected a number";
    return false;
  }
  *out = v.AsDouble();
  return true;
}

bool ReadBool(const JsonValue& obj, const char* section, const char* key,
              bool* out, std::string* error) {
  const JsonValue& v = obj[key];
  if (v.is_null()) return true;
  if (!v.is_bool()) {
    *error = std::string(section) + "." + key + ": expected true or false";
    return false;
  }
  *out = v.AsBool();
  return true;
}

// Rejects unknown keys in a section: a typoed knob must fail the request,
// not silently run (and dedupe as) the default configuration.
bool CheckKeys(const JsonValue& obj, const char* section,
               std::initializer_list<const char*> allowed,
               std::string* error) {
  for (const auto& kv : obj.Members()) {
    bool known = false;
    for (const char* k : allowed) {
      if (kv.first == k) {
        known = true;
        break;
      }
    }
    if (!known) {
      *error = std::string(section) + ": unknown key \"" + kv.first + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParseSparseMode(const std::string& name, SparseMode* out) {
  if (name == "auto") {
    *out = SparseMode::kAuto;
  } else if (name == "always") {
    *out = SparseMode::kAlways;
  } else if (name == "never") {
    *out = SparseMode::kNever;
  } else {
    return false;
  }
  return true;
}

bool RunSpec::Validate(std::string* error) const {
  if (d < 1 || d > kMaxDim) {
    *error = "topology.d must be in [1, " + std::to_string(kMaxDim) + "]";
    return false;
  }
  if (n < 2) {
    *error = "topology.n must be >= 2";
    return false;
  }
  // Overflow-safe n^d bound.
  std::int64_t procs = 1;
  for (int i = 0; i < d; ++i) {
    if (procs > kMaxProcs / n) {
      *error = "topology exceeds " + std::to_string(kMaxProcs) +
               " processors";
      return false;
    }
    procs *= n;
  }
  if (!(driver.rate >= 0.0 && driver.rate <= 1.0)) {
    *error = "driver.rate must be in [0, 1]";
    return false;
  }
  if (driver.warmup_steps < 0) {
    *error = "driver.warmup must be >= 0";
    return false;
  }
  if (driver.measure_steps < 1) {
    *error = "driver.measure must be >= 1";
    return false;
  }
  if (pattern_opts.hot_count < 1) {
    *error = "pattern.hot_count must be >= 1";
    return false;
  }
  if (!(pattern_opts.hot_skew >= 0.0 && pattern_opts.hot_skew <= 1.0)) {
    *error = "pattern.hot_skew must be in [0, 1]";
    return false;
  }
  if (step_cap < 0) {
    *error = "engine.step_cap must be >= 0";
    return false;
  }
  if (!(sparse_threshold >= 0.0 && sparse_threshold <= 1.0)) {
    *error = "engine.sparse_threshold must be in [0, 1]";
    return false;
  }
  return true;
}

EngineOptions RunSpec::MakeEngineOptions() const {
  EngineOptions eopts;
  eopts.step_cap = step_cap;
  eopts.stall_window = stall_window;
  eopts.sparse = sparse;
  eopts.sparse_threshold = sparse_threshold;
  return eopts;
}

std::uint64_t RunSpec::Fingerprint() const {
  std::uint64_t h = kFnvBasis;
  Mix(&h, static_cast<std::uint64_t>(d));
  Mix(&h, static_cast<std::uint64_t>(n));
  Mix(&h, torus ? 1 : 0);
  Mix(&h, static_cast<std::uint64_t>(pattern));
  Mix(&h, pattern_seed);
  Mix(&h, static_cast<std::uint64_t>(pattern_opts.hot_count));
  MixDouble(&h, pattern_opts.hot_skew);
  MixDouble(&h, driver.rate);
  Mix(&h, static_cast<std::uint64_t>(driver.warmup_steps));
  Mix(&h, static_cast<std::uint64_t>(driver.measure_steps));
  Mix(&h, driver.drain ? 1 : 0);
  Mix(&h, driver.seed);
  // Chain the engine-options hash so the two layers stay in lockstep: any
  // field HashEngineOptions learns to see moves the dedup key too.
  Mix(&h, HashEngineOptions(MakeEngineOptions()));
  return h;
}

void RunSpec::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  if (!name.empty()) w.Key("name").String(name);
  w.Key("priority").Int(priority);
  w.Key("topology").BeginObject();
  w.Key("d").Int(d);
  w.Key("n").Int(n);
  w.Key("torus").Bool(torus);
  w.EndObject();
  w.Key("pattern").BeginObject();
  w.Key("kind").String(PatternName(pattern));
  w.Key("seed").UInt(pattern_seed);
  w.Key("hot_count").Int(pattern_opts.hot_count);
  w.Key("hot_skew").Double(pattern_opts.hot_skew);
  w.EndObject();
  w.Key("driver").BeginObject();
  w.Key("rate").Double(driver.rate);
  w.Key("warmup").Int(driver.warmup_steps);
  w.Key("measure").Int(driver.measure_steps);
  w.Key("drain").Bool(driver.drain);
  w.Key("seed").UInt(driver.seed);
  w.EndObject();
  w.Key("engine").BeginObject();
  w.Key("sparse").String(SparseModeName(sparse));
  w.Key("sparse_threshold").Double(sparse_threshold);
  w.Key("step_cap").Int(step_cap);
  w.Key("stall_window").Int(stall_window);
  w.EndObject();
  w.EndObject();
}

std::string RunSpec::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  WriteJson(w);
  return os.str();
}

bool RunSpec::FromJson(const JsonValue& v, RunSpec* out, std::string* error) {
  if (!v.is_object()) {
    *error = "request body must be a JSON object";
    return false;
  }
  RunSpec spec;
  if (!CheckKeys(v, "request",
                 {"name", "priority", "topology", "pattern", "driver",
                  "engine"},
                 error)) {
    return false;
  }
  if (v.Has("name")) {
    if (!v["name"].is_string()) {
      *error = "name: expected a string";
      return false;
    }
    spec.name = v["name"].AsString();
  }
  std::int64_t priority = 0;
  if (!ReadInt(v, "request", "priority", &priority, error)) return false;
  spec.priority = static_cast<int>(priority);

  const JsonValue& topo = v["topology"];
  if (!topo.is_object()) {
    *error = "topology: expected an object with d and n";
    return false;
  }
  if (!CheckKeys(topo, "topology", {"d", "n", "torus"}, error)) return false;
  std::int64_t d = spec.d;
  std::int64_t n = spec.n;
  if (!ReadInt(topo, "topology", "d", &d, error)) return false;
  if (!ReadInt(topo, "topology", "n", &n, error)) return false;
  if (!ReadBool(topo, "topology", "torus", &spec.torus, error)) return false;
  if (d < 1 || d > kMaxDim) {
    *error = "topology.d must be in [1, " + std::to_string(kMaxDim) + "]";
    return false;
  }
  spec.d = static_cast<int>(d);
  if (n < 2 || n > (std::int64_t{1} << 30)) {
    *error = "topology.n must be in [2, 2^30]";
    return false;
  }
  spec.n = static_cast<int>(n);

  const JsonValue& pat = v["pattern"];
  if (!pat.is_object()) {
    *error = "pattern: expected an object with kind";
    return false;
  }
  if (!CheckKeys(pat, "pattern", {"kind", "seed", "hot_count", "hot_skew"},
                 error)) {
    return false;
  }
  if (!pat["kind"].is_string()) {
    *error = "pattern.kind: expected a string";
    return false;
  }
  if (!ParsePattern(pat["kind"].AsString(), &spec.pattern)) {
    *error = "pattern.kind: unknown pattern \"" + pat["kind"].AsString() +
             "\"";
    return false;
  }
  if (!ReadUInt(pat, "pattern", "seed", &spec.pattern_seed, error)) {
    return false;
  }
  if (!ReadInt(pat, "pattern", "hot_count", &spec.pattern_opts.hot_count,
               error)) {
    return false;
  }
  if (!ReadDouble(pat, "pattern", "hot_skew", &spec.pattern_opts.hot_skew,
                  error)) {
    return false;
  }

  const JsonValue& drv = v["driver"];
  if (!drv.is_object()) {
    *error = "driver: expected an object with rate";
    return false;
  }
  if (!CheckKeys(drv, "driver", {"rate", "warmup", "measure", "drain", "seed"},
                 error)) {
    return false;
  }
  if (!ReadDouble(drv, "driver", "rate", &spec.driver.rate, error)) {
    return false;
  }
  if (!ReadInt(drv, "driver", "warmup", &spec.driver.warmup_steps, error)) {
    return false;
  }
  if (!ReadInt(drv, "driver", "measure", &spec.driver.measure_steps, error)) {
    return false;
  }
  if (!ReadBool(drv, "driver", "drain", &spec.driver.drain, error)) {
    return false;
  }
  if (!ReadUInt(drv, "driver", "seed", &spec.driver.seed, error)) {
    return false;
  }

  const JsonValue& eng = v["engine"];
  if (!eng.is_null()) {
    if (!eng.is_object()) {
      *error = "engine: expected an object";
      return false;
    }
    if (!CheckKeys(eng, "engine",
                   {"sparse", "sparse_threshold", "step_cap", "stall_window"},
                   error)) {
      return false;
    }
    if (eng.Has("sparse")) {
      if (!eng["sparse"].is_string() ||
          !ParseSparseMode(eng["sparse"].AsString(), &spec.sparse)) {
        *error = "engine.sparse: expected \"auto\", \"always\", or \"never\"";
        return false;
      }
    }
    if (!ReadDouble(eng, "engine", "sparse_threshold",
                    &spec.sparse_threshold, error)) {
      return false;
    }
    if (!ReadInt(eng, "engine", "step_cap", &spec.step_cap, error)) {
      return false;
    }
    if (!ReadInt(eng, "engine", "stall_window", &spec.stall_window, error)) {
      return false;
    }
  }

  if (!spec.Validate(error)) return false;
  *out = spec;
  return true;
}

bool RunSpec::FromJsonText(const std::string& text, RunSpec* out,
                           std::string* error) {
  JsonParseResult parsed = ParseJson(text);
  if (!parsed.ok) {
    *error = "invalid JSON at byte " + std::to_string(parsed.offset) + ": " +
             parsed.error;
    return false;
  }
  return FromJson(parsed.value, out, error);
}

}  // namespace mdmesh
