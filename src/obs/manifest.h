// Run manifest: the self-description embedded at the top of every JSON and
// Chrome-trace artifact so an output file alone identifies the run that
// produced it — topology shape, seed, thread count, build type, engine
// traversal mode, and a hash of the engine options that influence routing.
//
// The manifest is a plain value type (ints and strings) so it can live in
// the obs layer without depending on the mesh or engine headers; the engine
// provides MakeRunManifest(topo, opts) (net/engine.h) to fill it from live
// options, and benches overwrite seed/binary with their own run parameters.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace mdmesh {

struct RunManifest {
  int schema_version = 1;
  std::string tool = "mdmesh";

  // Topology shape; d == 0 means "no single topology" (e.g. a bench that
  // sweeps several specs under one artifact).
  int d = 0;
  int n = 0;
  bool torus = false;

  std::uint64_t seed = 0;
  unsigned threads = 0;       ///< worker threads (0 = serial coordinator)
  std::string build_type;     ///< "debug" or "release" (from NDEBUG)
  std::string sparse_mode;    ///< "auto", "always", or "never"
  /// FNV-1a hex digest over the routing-relevant engine options (step cap,
  /// sparse policy, fault plan presence, ...). Empty when unknown.
  std::string engine_options_hash;
  std::string binary;         ///< producing binary, e.g. "bench_workloads"

  /// Serializes every field as one JSON object.
  void WriteJson(JsonWriter& w) const;
  std::string ToJson() const;
};

/// "debug" when NDEBUG is undefined, "release" otherwise — recorded so a
/// trace artifact is never mistaken for a perf-comparable run when it came
/// out of a debug build.
const char* BuildTypeName();

}  // namespace mdmesh
