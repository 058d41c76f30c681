#include "obs/publisher.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/atomic_file.h"
#include "util/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mdmesh {
namespace {

// Request heads larger than this are dropped unanswered: a GET needs a few
// hundred bytes, and the buffer must not grow with whatever a client sends.
constexpr std::size_t kMaxRequestHeadBytes = 8192;

std::int64_t SteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// MetricsPublisher
// ---------------------------------------------------------------------------

bool MetricsPublisher::Start(const Options& opts) {
  if (running_.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "metrics publisher: already running\n");
    return false;
  }
  if (opts.registry == nullptr) {
    std::fprintf(stderr, "metrics publisher: no registry attached\n");
    return false;
  }
  opts_ = opts;
  listen_fd_ = -1;
  port_ = -1;

  if (opts_.port >= 0) {
    // Shared helper (util/net.h): loopback bind with the service-grade
    // backlog — the old backlog of 8 was sized for a single scraper and
    // refused connections under concurrent-client bursts.
    std::string bind_error;
    listen_fd_ =
        ListenLoopback(opts_.port, kListenBacklog, &port_, &bind_error);
    if (listen_fd_ < 0) {
      std::fprintf(stderr, "metrics publisher: %s\n", bind_error.c_str());
      return false;
    }
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void MetricsPublisher::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Final snapshot so the file shows end-of-run totals, not the last tick.
  WriteStatusFile();
  port_ = -1;
}

std::string MetricsPublisher::StatusJson() const {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.BeginObject();
  if (opts_.manifest != nullptr) {
    w.Key("manifest");
    opts_.manifest->WriteJson(w);
  }
  w.Key("metrics");
  opts_.registry->WriteJson(w);
  w.EndObject();
  os << '\n';
  return os.str();
}

void MetricsPublisher::WriteStatusFile() {
  if (opts_.status_file.empty() || opts_.registry == nullptr) return;
  // Atomic rename (shared util/atomic_file.h): `watch cat` and scrapers
  // never observe a half-written snapshot.
  std::string error;
  if (!WriteFileAtomic(opts_.status_file, StatusJson(), &error)) {
    std::fprintf(stderr, "metrics publisher: %s\n", error.c_str());
    return;
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsPublisher::ServeOne(int client_fd) {
  // Frame the request head (up to the blank line): a GET may arrive split
  // across TCP segments. One deadline covers the whole head, so a client
  // that connects and sends nothing, or drips bytes, holds this thread —
  // and Stop()'s join — for at most kRequestTimeoutMs.
  std::string request;
  char buf[2048];
  const std::int64_t deadline = SteadyMs() + kRequestTimeoutMs;
  while (request.find("\r\n\r\n") == std::string::npos) {
    const std::int64_t left = deadline - SteadyMs();
    if (left <= 0 || request.size() > kMaxRequestHeadBytes) return;
    const int n = RecvSome(client_fd, buf, sizeof(buf), static_cast<int>(left));
    if (n <= 0) return;  // timeout, error, or closed before a full head
    request.append(buf, static_cast<std::size_t>(n));
  }

  std::string body;
  std::string content_type;
  std::string status = "200 OK";
  if (request.rfind("GET /metrics", 0) == 0) {
    body = opts_.registry->ToPrometheus();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (request.rfind("GET /status", 0) == 0) {
    body = StatusJson();
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    body = "not found\n";
    content_type = "text/plain";
  }

  std::ostringstream resp;
  resp << "HTTP/1.1 " << status << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
  SendAll(client_fd, resp.str());
  requests_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsPublisher::Run() {
  std::int64_t next_snapshot_ms = SteadyMs();
  // Escalating fd-exhaustion backoff, reset on the next successful accept.
  int backoff_ms = 10;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::int64_t now = SteadyMs();
    if (now >= next_snapshot_ms) {
      WriteStatusFile();
      next_snapshot_ms =
          now + (opts_.interval_ms > 0 ? opts_.interval_ms : 1000);
    }
    if (listen_fd_ >= 0) {
      pollfd pfd{};
      pfd.fd = listen_fd_;
      pfd.events = POLLIN;
      // Short poll timeout keeps both Stop() and the snapshot cadence
      // responsive without spinning.
      const int r = ::poll(&pfd, 1, 50);
      if (r > 0 && (pfd.revents & POLLIN) != 0) {
        // Hardened accept (util/net.h): EINTR retries inside, fd
        // exhaustion backs off with a diagnostic instead of silently
        // dropping the connection (it stays queued in the backlog), and
        // only a genuinely broken listener tears the endpoint down.
        int client = -1;
        std::string diag;
        switch (AcceptClient(listen_fd_, &client, &diag)) {
          case AcceptStatus::kAccepted:
            backoff_ms = 10;
            ServeOne(client);
            ::close(client);
            break;
          case AcceptStatus::kRetry:
            break;
          case AcceptStatus::kExhausted:
            accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr, "metrics publisher: %s\n", diag.c_str());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            if (backoff_ms < 1000) backoff_ms *= 2;
            break;
          case AcceptStatus::kFatal:
            std::fprintf(stderr,
                         "metrics publisher: %s; serving status file only\n",
                         diag.c_str());
            ::close(listen_fd_);
            listen_fd_ = -1;
            break;
        }
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

// ---------------------------------------------------------------------------
// ProgressMeter
// ---------------------------------------------------------------------------

bool ProgressMeter::StderrIsTty() { return ::isatty(2) != 0; }

ProgressMeter::ProgressMeter(std::int64_t step_cap, std::int64_t interval_ms,
                             bool force)
    : step_cap_(step_cap),
      interval_ms_(interval_ms > 0 ? interval_ms : 500),
      enabled_(force || StderrIsTty()),
      start_ms_(SteadyMs()) {
  last_emit_ms_ = start_ms_;
}

void ProgressMeter::Emit(std::int64_t step, std::int64_t in_flight,
                         double steps_per_sec) {
  char line[256];
  if (step_cap_ > 0 && steps_per_sec > 0.0) {
    const double eta_s = static_cast<double>(step_cap_ - step) /
                         steps_per_sec;
    std::snprintf(line, sizeof(line),
                  "[progress] step %lld/%lld  in-flight %lld  %.0f steps/s  "
                  "eta %.1fs",
                  static_cast<long long>(step),
                  static_cast<long long>(step_cap_),
                  static_cast<long long>(in_flight), steps_per_sec,
                  eta_s > 0 ? eta_s : 0.0);
  } else {
    std::snprintf(line, sizeof(line),
                  "[progress] step %lld  in-flight %lld  %.0f steps/s",
                  static_cast<long long>(step),
                  static_cast<long long>(in_flight), steps_per_sec);
  }
  last_line_ = line;
  ++lines_;
  if (enabled_) std::fprintf(stderr, "%s\n", line);
}

void ProgressMeter::Step(std::int64_t step, std::int64_t in_flight,
                         std::int64_t arrivals) {
  delivered_total_ += arrivals;
  if (finished_) return;
  const std::int64_t now = SteadyMs();
  if (now - last_emit_ms_ < interval_ms_) return;
  const double dt_s =
      static_cast<double>(now - last_emit_ms_) / 1000.0;
  const double rate =
      dt_s > 0 ? static_cast<double>(step - last_emit_step_) / dt_s : 0.0;
  Emit(step, in_flight, rate);
  last_emit_ms_ = now;
  last_emit_step_ = step;
}

std::function<void(std::int64_t, std::int64_t, std::int64_t)>
ProgressMeter::Observer() {
  return [this](std::int64_t step, std::int64_t in_flight,
                std::int64_t arrivals) { Step(step, in_flight, arrivals); };
}

void ProgressMeter::Finish() {
  if (finished_) return;
  finished_ = true;
  const double total_s =
      static_cast<double>(SteadyMs() - start_ms_) / 1000.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "[progress] done: %lld delivered in %.2fs",
                static_cast<long long>(delivered_total_), total_s);
  last_line_ = line;
  ++lines_;
  if (enabled_) std::fprintf(stderr, "%s\n", line);
}

}  // namespace mdmesh
