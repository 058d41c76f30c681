// ExperimentService: the always-on control plane. Owns the scheduler, the
// service-level MetricsRegistry, and the HTTP server, and maps the routes:
//
//   POST /runs       submit a RunSpec (JSON body) → 202 {id, state, deduped,
//                    location} | 400 invalid | 429 queue full | 503 draining
//   GET  /runs       all run records + state counts
//   GET  /runs/<id>  one record: status, spec, result JSON, artifact paths
//   GET  /metrics    Prometheus text (serve.* plus anything else registered)
//   GET  /status     service snapshot JSON (counts, ports, drain flag)
//   GET  /healthz    liveness probe ("ok")
//
// Stop() drains before closing the listener, so clients can watch a drain
// finish; the binary wires SIGTERM to Stop() for the graceful-shutdown path
// (examples/experiment_server.cpp).
#pragma once

#include <string>

#include "obs/registry.h"
#include "serve/scheduler.h"
#include "util/http.h"

namespace mdmesh {

struct ServiceOptions {
  /// HTTP port on 127.0.0.1 (0 = ephemeral, readable via port()).
  int port = 0;
  SchedulerOptions scheduler;
};

class ExperimentService {
 public:
  explicit ExperimentService(const ServiceOptions& opts);
  ~ExperimentService() { Stop(); }

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Starts scheduler (restoring any persisted queue) then HTTP listener.
  bool Start(std::string* error);

  /// Graceful shutdown: scheduler drain (checkpoints in-flight runs,
  /// persists the queue) while the HTTP surface stays up, then listener
  /// teardown. Idempotent.
  void Stop();

  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  MetricsRegistry& metrics() { return metrics_; }
  RunScheduler& scheduler() { return scheduler_; }

 private:
  HttpResponse Handle(const HttpRequest& req);
  HttpResponse HandleSubmit(const HttpRequest& req);
  HttpResponse HandleList() const;
  HttpResponse HandleGet(std::int64_t id) const;
  HttpResponse HandleStatus() const;

  ServiceOptions opts_;
  MetricsRegistry metrics_;
  RunScheduler scheduler_;
  HttpServer http_;
  bool stopped_ = false;
};

}  // namespace mdmesh
