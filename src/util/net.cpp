#include "util/net.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mdmesh {

int ListenLoopback(int port, int backlog, int* bound_port,
                   std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    if (error != nullptr) {
      *error = "cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? ntohs(bound.sin_port)
                      : port;
  }
  return fd;
}

AcceptStatus AcceptClient(int listen_fd, int* client_fd, std::string* diag) {
  *client_fd = -1;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      *client_fd = fd;
      return AcceptStatus::kAccepted;
    }
    const int err = errno;
    if (err == EINTR) continue;  // signal during accept: the connection is
                                 // still pending; try again immediately
    if (err == EAGAIN || err == EWOULDBLOCK || err == ECONNABORTED) {
      return AcceptStatus::kRetry;
    }
    if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
      // Descriptor/buffer exhaustion: the pending connection stays in the
      // listen backlog; the caller should back off and retry rather than
      // tear down the listener.
      if (diag != nullptr) {
        *diag = std::string("accept: ") + std::strerror(err) +
                " (fd exhaustion; backing off)";
      }
      return AcceptStatus::kExhausted;
    }
    if (diag != nullptr) {
      *diag = std::string("accept: ") + std::strerror(err);
    }
    return AcceptStatus::kFatal;
  }
}

int RecvSome(int fd, char* buf, std::size_t cap, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return -1;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, static_cast<int>(left));
    if (r < 0) {
      if (errno == EINTR) continue;
      return -2;
    }
    if (r == 0) return -1;
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) return static_cast<int>(n);
    if (n == 0) return 0;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return -2;
  }
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t k =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    sent += static_cast<std::size_t>(k);
  }
  return true;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace mdmesh
