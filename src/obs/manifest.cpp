#include "obs/manifest.h"

#include <sstream>

namespace mdmesh {

const char* BuildTypeName() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

void RunManifest::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("schema_version").Int(schema_version);
  w.Key("tool").String(tool);
  w.Key("d").Int(d);
  w.Key("n").Int(n);
  w.Key("wrap").String(torus ? "torus" : "mesh");
  w.Key("seed").UInt(seed);
  w.Key("threads").UInt(threads);
  w.Key("build_type").String(build_type.empty() ? BuildTypeName() : build_type);
  w.Key("sparse_mode").String(sparse_mode);
  w.Key("engine_options_hash").String(engine_options_hash);
  if (!binary.empty()) w.Key("binary").String(binary);
  w.EndObject();
}

std::string RunManifest::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  WriteJson(w);
  return os.str();
}

}  // namespace mdmesh
