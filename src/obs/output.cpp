#include "obs/output.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mdmesh {

std::ofstream OpenOutputFile(const std::string& path, const char* flag) {
  errno = 0;
  std::ofstream out(path);
  if (!out) {
    // ofstream sets errno through the underlying open(2); surfacing its
    // text turns "cannot open" into an actionable message (ENOENT vs
    // EACCES vs EROFS need different fixes).
    std::fprintf(stderr, "error: cannot open %s=%s for writing: %s\n", flag,
                 path.c_str(),
                 errno != 0 ? std::strerror(errno) : "unknown error");
    std::exit(1);
  }
  return out;
}

void AddOutputFlags(Cli& cli) {
  cli.AddString("--json", "",
                "write experiment records to this path (JSON array; .jsonl "
                "for one record per line)");
  cli.AddString("--trace-csv", "",
                "write the per-step congestion trace to this CSV path");
  cli.AddString("--perfetto", "",
                "write a Chrome Trace Event JSON timeline to this path "
                "(open in ui.perfetto.dev)");
  cli.AddInt("--metrics-port", -1,
             "serve Prometheus text at 127.0.0.1:PORT/metrics during the "
             "run (0 = OS-assigned ephemeral port; -1 disables)");
  cli.AddString("--status-file", "",
                "periodically write a status JSON snapshot to this path "
                "(atomically renamed into place)");
  cli.AddString("--flight-recorder", "",
                "dump the engine's black-box step ring to this path when a "
                "run aborts (watchdog, step cap, invariant, interrupt)");
  cli.AddString("--checkpoint", "",
                "write engine checkpoints (versioned, CRC-checksummed, "
                "atomically renamed) into this directory");
  cli.AddInt("--checkpoint-every", 0,
             "checkpoint cadence in completed steps (0 = the example's "
             "default cadence)");
  cli.AddInt("--checkpoint-keep", 3,
             "checkpoint generations to keep before rotating old ones out");
  cli.AddBool("--resume", false,
              "resume from the newest valid checkpoint in --checkpoint "
              "instead of starting fresh");
  cli.AddString("--journeys", "",
                "write per-packet journey records (JSONL, one traced packet "
                "per line) to this path after the run");
  cli.AddInt("--journey-rate-pm", 10,
             "journey sample rate in per-mille of packet ids (10 = 1%, "
             "1000 = every packet)");
  cli.AddInt("--journey-seed", 0,
             "seed for the deterministic journey sampler");
  cli.AddString("--journey-watch", "",
                "comma-separated packet ids to always trace, regardless of "
                "the sample rate");
  cli.AddBool("--progress", false,
              "stderr heartbeat with step, in-flight, and steps/sec");
  cli.AddBool("--perf", false,
              "collect per-phase hardware counters via perf_event_open "
              "(Linux only; degrades gracefully elsewhere)");
  cli.AddBool("--quick", false, "smallest configuration only (CI smoke runs)");
  cli.AddBool("--mega", false,
              "additionally run the mega-mesh fixtures (several GB of RSS, "
              "minutes of wall time)");
}

OutputFlags GetOutputFlags(const Cli& cli) {
  OutputFlags flags;
  flags.json = cli.GetString("json");
  flags.trace_csv = cli.GetString("trace-csv");
  flags.perfetto = cli.GetString("perfetto");
  flags.metrics_port = cli.GetInt("metrics-port");
  flags.status_file = cli.GetString("status-file");
  flags.flight_recorder = cli.GetString("flight-recorder");
  flags.checkpoint = cli.GetString("checkpoint");
  flags.checkpoint_every = cli.GetInt("checkpoint-every");
  flags.checkpoint_keep = cli.GetInt("checkpoint-keep");
  flags.resume = cli.GetBool("resume");
  flags.journeys = cli.GetString("journeys");
  flags.journey_rate_pm = cli.GetInt("journey-rate-pm");
  flags.journey_seed = cli.GetInt("journey-seed");
  flags.journey_watch = cli.GetString("journey-watch");
  flags.progress = cli.GetBool("progress");
  flags.perf = cli.GetBool("perf");
  flags.quick = cli.GetBool("quick");
  flags.mega = cli.GetBool("mega");
  return flags;
}

JourneyTracer::Options JourneyOptionsFromFlags(const OutputFlags& flags) {
  JourneyTracer::Options opts;
  opts.sample_rate = static_cast<double>(flags.journey_rate_pm) / 1000.0;
  opts.seed = static_cast<std::uint64_t>(flags.journey_seed);
  const char* s = flags.journey_watch.c_str();
  while (*s != '\0') {
    char* end = nullptr;
    const long long id = std::strtoll(s, &end, 10);
    if (end == s) {
      ++s;  // malformed entry: skip one char and retry
      continue;
    }
    opts.watch.push_back(static_cast<std::int64_t>(id));
    s = *end == ',' ? end + 1 : end;
  }
  return opts;
}

}  // namespace mdmesh
