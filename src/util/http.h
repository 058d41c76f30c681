// Tiny loopback HTTP/1.1 server + client: the one HTTP stack in the repo.
// The experiment service's control plane (serve/service.h) and the live
// metrics endpoint (obs/publisher.h) both serve through HttpServer.
//
// The server is route-agnostic: one background thread, one connection at a
// time (requests are short — JSON or a scrape in, text out — and callers do
// their real work on their own threads). accept() is hardened: it retries
// through EINTR (a SIGTERM aimed at graceful drain must not eat an unrelated
// connection), and descriptor exhaustion backs off with a diagnostic while
// the connection waits in a backlog sized for bursts of submitting clients.
// Handlers run on the server thread and must be thread-safe against the
// rest of the process.
//
// HttpFetch is the matching client used by tests, the benchmark and
// workload_demo's --server mode: loopback-only, Connection: close framing,
// so one call is one socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace mdmesh {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< decoded target without the query string
  std::string query;   ///< raw query string (no leading '?'), may be empty
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Standard reason phrase for the handful of statuses the service emits.
const char* HttpStatusText(int status);

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serving thread.
  /// Returns false with *error set on bind failure.
  bool Start(int port, Handler handler, std::string* error = nullptr);

  /// Stops the serving thread and closes the listener. A request still
  /// being read is dropped within one 50 ms read slice, so a silent client
  /// cannot hold Stop() for the read deadline. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actually-bound port (for port = 0), or -1 when not running.
  int port() const { return port_; }

  std::int64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Accept attempts that hit fd exhaustion and backed off — visible so the
  /// service can export it as a metric.
  std::int64_t accept_backoffs() const {
    return accept_backoffs_.load(std::memory_order_relaxed);
  }

  /// Largest request (headers + body) the server will read; bigger requests
  /// get 413. Specs are a few hundred bytes; 1 MiB leaves headroom for
  /// batch submissions without letting a client balloon server memory.
  static constexpr std::size_t kMaxRequestBytes = 1 << 20;

  /// Deadline for one whole request, head and body, to arrive. Requests are
  /// loopback JSON blobs; a client slower than this is stuck, and the
  /// single serving thread drops it rather than stall every other request
  /// behind it.
  static constexpr int kReadTimeoutMs = 2000;

 private:
  void Run();
  void ServeOne(int client_fd);

  Handler handler_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> accept_backoffs_{0};
  int listen_fd_ = -1;
  int port_ = -1;
};

/// One loopback HTTP exchange (blocking, Connection: close).
struct HttpResult {
  bool ok = false;     ///< transport succeeded and a status line parsed
  int status = 0;      ///< HTTP status when ok
  std::string body;
  std::string error;   ///< transport/parse failure reason when !ok
};

HttpResult HttpFetch(int port, const std::string& method,
                     const std::string& target, const std::string& body = "",
                     int timeout_ms = 5000);

}  // namespace mdmesh
