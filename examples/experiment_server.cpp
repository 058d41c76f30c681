// experiment_server: the always-on mdmesh experiment service.
//
// Accepts JSON run requests over loopback HTTP, schedules them across a
// worker pool with priorities, dedup, and a bounded queue, and streams each
// run's metrics + Perfetto trace into per-run artifact directories:
//
//   $ ./experiment_server --port=8080 --artifacts=exp --workers=2
//   $ curl -X POST 127.0.0.1:8080/runs -d '{"topology":{"d":2,"n":8},
//       "pattern":{"kind":"uniform"},"driver":{"rate":0.1,"warmup":32,
//       "measure":128,"drain":true}}'
//   $ curl 127.0.0.1:8080/runs          # all runs + state counts
//   $ curl 127.0.0.1:8080/metrics       # Prometheus text
//
// SIGTERM/SIGINT drain gracefully: in-flight runs checkpoint through the
// engine's interrupt path, the queue persists to <artifacts>/queue.json,
// and restarting the server with the same --artifacts resumes every
// interrupted run from its newest checkpoint — byte-identical results to an
// uninterrupted run (scripts/serve_client.py drives the full drill).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "core/mdmesh.h"
#include "util/atomic_file.h"
#include "util/cli.h"

namespace {

// The binary owns SIGTERM/SIGINT (rather than FlightRecorder's handlers):
// the engine *consumes* the FlightRecorder flag each time a run aborts, so
// the main loop could miss it; this flag is only ever cleared by exit.
std::atomic<bool> g_shutdown{false};

void OnSignal(int) { g_shutdown.store(true, std::memory_order_release); }

void InstallShutdownHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdmesh;
  Cli cli("experiment_server",
          "always-on experiment service: queued runs over HTTP");
  cli.AddInt("port", 0, "HTTP port on 127.0.0.1 (0 = ephemeral)");
  cli.AddString("artifacts", "serve-artifacts",
                "artifact root (queue.json + per-run directories)");
  cli.AddInt("workers", 2, "concurrent runs");
  cli.AddInt("threads-per-run", 0, "engine threads per run (0 = serial)");
  cli.AddInt("queue-limit", 64, "max queued runs before 429 rejection");
  cli.AddInt("checkpoint-every", 256, "checkpoint cadence in steps");
  cli.AddInt("checkpoint-keep", 2, "checkpoint generations kept per run");
  cli.AddInt("keep-completed-runs", 0,
             "retention: keep only the newest K completed run directories, "
             "evicting older artifacts (0 = keep everything)");
  cli.AddInt("journey-rate-pm", 10,
             "journey sample rate per run, in per-mille of packet ids "
             "(10 = 1%; 0 disables the journeys.jsonl artifact)");
  cli.AddString("port-file", "",
                "write the bound port here (atomically) once listening");
  if (!cli.Parse(argc, argv)) return 2;

  ServiceOptions opts;
  opts.port = static_cast<int>(cli.GetInt("port"));
  opts.scheduler.artifacts_dir = cli.GetString("artifacts");
  opts.scheduler.workers = static_cast<int>(cli.GetInt("workers"));
  opts.scheduler.threads_per_run =
      static_cast<int>(cli.GetInt("threads-per-run"));
  opts.scheduler.queue_limit =
      static_cast<std::size_t>(cli.GetInt("queue-limit"));
  opts.scheduler.checkpoint_every_steps = cli.GetInt("checkpoint-every");
  opts.scheduler.checkpoint_keep =
      static_cast<int>(cli.GetInt("checkpoint-keep"));
  opts.scheduler.keep_completed_runs = cli.GetInt("keep-completed-runs");
  opts.scheduler.journey_rate_pm = cli.GetInt("journey-rate-pm");

  InstallShutdownHandlers();

  ExperimentService service(opts);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "experiment_server: %s\n", error.c_str());
    return 1;
  }
  std::printf("serving http://127.0.0.1:%d (artifacts: %s, workers: %lld)\n",
              service.port(), opts.scheduler.artifacts_dir.c_str(),
              static_cast<long long>(opts.scheduler.workers));
  std::fflush(stdout);
  const std::string port_file = cli.GetString("port-file");
  if (!port_file.empty()) {
    std::string werr;
    if (!WriteFileAtomic(port_file, std::to_string(service.port()) + "\n",
                         &werr)) {
      std::fprintf(stderr, "experiment_server: %s\n", werr.c_str());
      return 1;
    }
  }

  const std::int64_t resumed = service.scheduler().resumed_runs();
  while (!g_shutdown.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "experiment_server: draining...\n");
  service.Stop();
  const RunScheduler::Counts counts = service.scheduler().CountByState();
  std::fprintf(stderr,
               "experiment_server: drained (queued %lld, interrupted %lld, "
               "done %lld, failed %lld, resumed this session %lld)\n",
               static_cast<long long>(counts.queued),
               static_cast<long long>(counts.interrupted),
               static_cast<long long>(counts.done),
               static_cast<long long>(counts.failed),
               static_cast<long long>(service.scheduler().resumed_runs() -
                                      resumed));
  return 0;
}
