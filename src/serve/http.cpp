#include "serve/http.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "util/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mdmesh {
namespace {

std::string FormatResponse(const HttpResponse& resp) {
  std::ostringstream os;
  os << "HTTP/1.1 " << resp.status << ' ' << HttpStatusText(resp.status)
     << "\r\nContent-Type: " << resp.content_type
     << "\r\nContent-Length: " << resp.body.size()
     << "\r\nConnection: close\r\n\r\n"
     << resp.body;
  return os.str();
}

// Parses "METHOD /path?query HTTP/1.1" and the Content-Length header out of
// a raw header block. Returns false on a malformed request line.
bool ParseHead(const std::string& head, HttpRequest* req,
               std::size_t* content_length) {
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    req->query = target.substr(q + 1);
    target.resize(q);
  }
  req->path = std::move(target);

  *content_length = 0;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string h = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = h.find(':');
    if (colon == std::string::npos) continue;
    std::string key = h.substr(0, colon);
    for (char& c : key) {
      c = static_cast<char>(
          c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
    }
    if (key == "content-length") {
      std::size_t v = colon + 1;
      while (v < h.size() && h[v] == ' ') ++v;
      *content_length = static_cast<std::size_t>(
          std::strtoull(h.c_str() + v, nullptr, 10));
    }
  }
  return true;
}

}  // namespace

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool HttpServer::Start(int port, Handler handler, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  std::string bind_error;
  listen_fd_ = ListenLoopback(port, kListenBacklog, &port_, &bind_error);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = bind_error;
    port_ = -1;
    return false;
  }
  handler_ = std::move(handler);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

void HttpServer::Run() {
  // Escalating backoff under fd exhaustion: start small so a transient
  // spike recovers fast, cap at 1 s so the listener keeps draining.
  int backoff_ms = 10;
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, 50);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int client = -1;
    std::string diag;
    switch (AcceptClient(listen_fd_, &client, &diag)) {
      case AcceptStatus::kAccepted:
        backoff_ms = 10;
        ServeOne(client);
        CloseFd(client);
        break;
      case AcceptStatus::kRetry:
        break;
      case AcceptStatus::kExhausted:
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "http server: %s\n", diag.c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        if (backoff_ms < 1000) backoff_ms *= 2;
        break;
      case AcceptStatus::kFatal:
        std::fprintf(stderr, "http server: %s; stopping listener\n",
                     diag.c_str());
        return;
    }
  }
}

void HttpServer::ServeOne(int client_fd) {
  // Frame the request: headers up to the blank line, then Content-Length
  // bytes of body. One deadline covers the whole read, so a client that
  // sends nothing, or drips bytes, holds this thread (and Stop()'s join)
  // for at most kReadTimeoutMs; a request not complete by then is dropped
  // unanswered.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kReadTimeoutMs);
  std::string data;
  std::size_t head_end = std::string::npos;
  std::size_t content_length = 0;
  HttpRequest req;
  char buf[4096];
  bool parsed = false;
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = data.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        if (!ParseHead(data.substr(0, head_end), &req, &content_length)) {
          SendAll(client_fd,
                  FormatResponse({400, "text/plain", "malformed request\n"}));
          return;
        }
        parsed = true;
      }
    }
    if (parsed) {
      const std::size_t have = data.size() - (head_end + 4);
      if (content_length > kMaxRequestBytes) {
        SendAll(client_fd,
                FormatResponse({413, "text/plain", "request too large\n"}));
        return;
      }
      if (have >= content_length) break;
    }
    if (data.size() > kMaxRequestBytes) {
      SendAll(client_fd,
              FormatResponse({413, "text/plain", "request too large\n"}));
      return;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    const int n =
        left > 0
            ? RecvSome(client_fd, buf, sizeof(buf), static_cast<int>(left))
            : -1;
    if (n <= 0) {
      // A peer that closed after the headers is served the body it sent;
      // the deadline passing (-1) or a socket error drops the request.
      if (n == 0 && parsed) break;
      return;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  req.body = data.substr(head_end + 4, content_length);

  HttpResponse resp;
  try {
    resp = handler_(req);
  } catch (const std::exception& e) {
    resp = {500, "text/plain", std::string("internal error: ") + e.what() +
                                   "\n"};
  }
  SendAll(client_fd, FormatResponse(resp));
  requests_.fetch_add(1, std::memory_order_relaxed);
}

HttpResult HttpFetch(int port, const std::string& method,
                     const std::string& target, const std::string& body,
                     int timeout_ms) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result.error = std::string("socket: ") + std::strerror(errno);
    return result;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    result.error = "connect 127.0.0.1:" + std::to_string(port) + ": " +
                   std::strerror(errno);
    ::close(fd);
    return result;
  }

  std::ostringstream os;
  os << method << ' ' << target << " HTTP/1.1\r\n"
     << "Host: 127.0.0.1:" << port << "\r\n"
     << "Content-Type: application/json\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  if (!SendAll(fd, os.str())) {
    result.error = "send failed";
    ::close(fd);
    return result;
  }

  std::string data;
  char buf[4096];
  for (;;) {
    const int n = RecvSome(fd, buf, sizeof(buf), timeout_ms);
    if (n == 0) break;  // orderly close: response complete
    if (n < 0) {
      result.error = n == -1 ? "response timeout" : "recv failed";
      ::close(fd);
      return result;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 NNN ..." then headers then body.
  if (data.rfind("HTTP/1.", 0) != 0 || data.size() < 12) {
    result.error = "malformed response";
    return result;
  }
  result.status = std::atoi(data.c_str() + 9);
  const std::size_t head_end = data.find("\r\n\r\n");
  result.body =
      head_end == std::string::npos ? "" : data.substr(head_end + 4);
  result.ok = true;
  return result;
}

}  // namespace mdmesh
