// Shared machine-readable-output flags, registered identically by every
// bench binary and example:
//
//   --json=<path>           write experiment records (JSON array, or JSONL
//                           when the path ends in .jsonl)
//   --trace-csv=<path>      write the per-step congestion trace as CSV
//   --perfetto=<path>       write a Chrome Trace Event JSON timeline (open
//                           in ui.perfetto.dev or chrome://tracing)
//   --metrics-port=<n>      serve Prometheus text at 127.0.0.1:<n>/metrics
//                           while the run executes (0 = ephemeral port)
//   --status-file=<path>    periodically write a status JSON snapshot
//                           (atomic rename; `watch cat` safe)
//   --flight-recorder=<path> dump the engine's black-box step ring there on
//                           stall/step-cap/invariant/interrupt aborts
//   --checkpoint=<dir>      write engine checkpoints into this directory
//                           (versioned, CRC-checksummed, atomically renamed)
//   --checkpoint-every=<n>  checkpoint cadence in steps
//   --checkpoint-keep=<k>   checkpoint generations to keep (default 3)
//   --resume                resume from the newest valid checkpoint in
//                           --checkpoint instead of starting fresh
//   --journeys=<path>       write per-packet journey records (JSONL, one
//                           traced packet per line) after the run
//   --journey-rate-pm=<n>   journey sample rate in per-mille (default 10 =
//                           1%; 1000 traces every packet)
//   --journey-seed=<n>      seed for the deterministic journey sampler
//   --journey-watch=<ids>   comma-separated packet ids to always trace,
//                           regardless of the sample rate
//   --progress              stderr heartbeat (auto-off when not a TTY
//                           unless the flag is given explicitly)
//   --perf                  per-phase hardware counters (Linux
//                           perf_event_open; silently degrades elsewhere)
//   --quick                 smallest configuration only (CI smoke runs)
//   --mega                  additionally run the mega-mesh fixtures (e.g.
//                           bench_engine's n=4096 2D record; several GB
//                           of RSS, minutes of wall time)
//
// Benches and examples register them on their Cli via AddOutputFlags and
// read them back with GetOutputFlags. Every value flag accepts both
// `--flag=value` and `--flag value`; a misspelt flag, a malformed number or
// a trailing value flag with no value fails Cli::Parse, and the binary
// exits 2.
#pragma once

#include <fstream>
#include <string>

#include "obs/journey.h"
#include "util/cli.h"

namespace mdmesh {

struct OutputFlags {
  std::string json;       ///< empty = no JSON output
  std::string trace_csv;  ///< empty = no congestion-trace CSV
  std::string perfetto;   ///< empty = no Chrome-trace timeline
  /// HTTP port for the live /metrics endpoint: -1 (default) disabled,
  /// 0 ephemeral, > 0 fixed. Parsed from --metrics-port.
  std::int64_t metrics_port = -1;
  std::string status_file;       ///< empty = no periodic status JSON
  std::string flight_recorder;   ///< empty = no black-box dump path
  /// Checkpoint directory (--checkpoint): empty = checkpointing disabled.
  std::string checkpoint;
  /// Checkpoint cadence in steps (--checkpoint-every; 0 keeps the
  /// example's default).
  std::int64_t checkpoint_every = 0;
  /// Generations to keep in the checkpoint dir (--checkpoint-keep).
  std::int64_t checkpoint_keep = 3;
  /// Resume from the newest valid checkpoint in --checkpoint (--resume).
  bool resume = false;
  /// Journey-trace JSONL output path (--journeys): empty = tracing off.
  std::string journeys;
  /// Journey sample rate in per-mille (--journey-rate-pm): 10 = 1% of
  /// packet ids, 1000 = every packet.
  std::int64_t journey_rate_pm = 10;
  /// Seed for the deterministic journey sampler (--journey-seed).
  std::int64_t journey_seed = 0;
  /// Comma-separated packet ids to always trace (--journey-watch).
  std::string journey_watch;
  bool progress = false;         ///< force the stderr heartbeat on
  bool perf = false;             ///< per-phase hardware counters
  bool quick = false;
  /// Opt into the mega-mesh fixtures (multi-GB RSS, minutes of wall time);
  /// off by default so CI smoke loops stay cheap.
  bool mega = false;

  bool WantsJson() const { return !json.empty(); }
  bool WantsTrace() const { return !trace_csv.empty(); }
  bool WantsPerfetto() const { return !perfetto.empty(); }
  bool WantsMetricsEndpoint() const { return metrics_port >= 0; }
  bool WantsStatusFile() const { return !status_file.empty(); }
  bool WantsFlightRecorder() const { return !flight_recorder.empty(); }
  bool WantsCheckpoint() const { return !checkpoint.empty(); }
  bool WantsJourneys() const { return !journeys.empty(); }
  /// True when either live-publisher sink is requested.
  bool WantsPublisher() const {
    return WantsMetricsEndpoint() || WantsStatusFile();
  }
};

/// Registers every flag listed at the top of this file on `cli`.
void AddOutputFlags(Cli& cli);

/// Reads the flags registered by AddOutputFlags back from a parsed Cli.
OutputFlags GetOutputFlags(const Cli& cli);

/// Builds JourneyTracer::Options from the journey flags: per-mille rate to
/// a [0, 1] fraction, the seed verbatim, and the comma-separated watch
/// list parsed into ids (malformed entries are skipped).
JourneyTracer::Options JourneyOptionsFromFlags(const OutputFlags& flags);

/// Opens `path` for writing. On failure, prints a clear error naming the
/// responsible flag (e.g. "--json") to stderr and exits with status 1 —
/// a CI run pointing its output at an unwritable path must fail, not
/// silently produce nothing.
std::ofstream OpenOutputFile(const std::string& path, const char* flag);

}  // namespace mdmesh
