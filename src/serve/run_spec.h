// RunSpec: one validated experiment request — the unit of work the
// experiment service queues, dedupes, executes, and persists.
//
// A spec names everything that determines an open-loop run's results:
// topology shape, traffic pattern (+ its seed and hot-spot shape), the
// driver's injection windows, and the routing-relevant EngineOptions knobs.
// Deliberately excluded: thread counts, observability sinks, checkpoint
// cadence — none of those change a delivery trace (the
// engine's byte-identity contracts), so two requests differing only there
// are the *same experiment* and dedupe to one execution.
//
// Fingerprint() is the dedup key: FNV-1a over the instance fields chained
// with HashEngineOptions over the spec's engine configuration. Any field
// that can change results must move the fingerprint — the field-sensitivity
// tests pin that for both layers of the hash.
#pragma once

#include <cstdint>
#include <string>

#include "net/engine.h"
#include "obs/json.h"
#include "serve/json_value.h"
#include "workload/driver.h"
#include "workload/patterns.h"

namespace mdmesh {

struct RunSpec {
  /// Optional human label, echoed into listings and artifacts.
  std::string name;
  /// Scheduling priority: higher runs first; FIFO within a priority.
  int priority = 0;

  // Topology.
  int d = 2;
  int n = 8;
  bool torus = false;

  // Traffic.
  PatternKind pattern = PatternKind::kUniform;
  std::uint64_t pattern_seed = 1;
  PatternOptions pattern_opts;

  // Open-loop driver windows (workload/driver.h).
  DriverOptions driver;

  // Routing-relevant engine knobs (the HashEngineOptions half of the
  // fingerprint). Kept as the enum/scalar fields rather than a whole
  // EngineOptions so the spec stays a plain serializable value.
  std::int64_t step_cap = 0;
  std::int64_t stall_window = 0;
  SparseMode sparse = SparseMode::kAuto;
  double sparse_threshold = 0.5;

  /// Largest topology a request may name (n^d processors); requests above
  /// it are rejected at validation so one hostile POST cannot OOM the
  /// server. 2^24 matches the bench baseline's largest routine fixture.
  static constexpr std::int64_t kMaxProcs = std::int64_t{1} << 24;

  /// Shape check; fills `error` and returns false on the first violation.
  bool Validate(std::string* error) const;

  /// EngineOptions carrying exactly this spec's routing-relevant knobs.
  /// The caller owns pool/injector/observability wiring.
  EngineOptions MakeEngineOptions() const;

  /// Dedup key over everything that determines the delivery trace.
  std::uint64_t Fingerprint() const;

  /// Serialization (the same shape FromJson reads).
  void WriteJson(JsonWriter& w) const;
  std::string ToJson() const;

  /// Parses the POST /runs request shape:
  ///   {"name"?, "priority"?, "topology": {"d","n","torus"?},
  ///    "pattern": {"kind", "seed"?, "hot_count"?, "hot_skew"?},
  ///    "driver": {"rate","warmup","measure","drain"?,"seed"?},
  ///    "engine"?: {"sparse"?,"sparse_threshold"?,"step_cap"?,
  ///                "stall_window"?}}
  /// Unknown keys inside these objects are rejected (a typoed knob must not
  /// silently fall back to a default and then dedupe against the wrong
  /// run). Returns false with `error` set on any shape/validation problem.
  static bool FromJson(const JsonValue& v, RunSpec* out, std::string* error);

  /// Convenience: ParseJson + FromJson + Validate in one call.
  static bool FromJsonText(const std::string& text, RunSpec* out,
                           std::string* error);
};

/// Parse helper shared with the CLI surfaces ("auto"/"always"/"never").
/// Returns false on an unknown name.
bool ParseSparseMode(const std::string& name, SparseMode* out);

}  // namespace mdmesh
