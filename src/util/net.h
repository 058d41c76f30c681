// Shared loopback-socket helpers for the HTTP surfaces (obs/publisher and
// serve/http), over POSIX sockets.
//
// The accept path encodes the hardening the single-client publisher
// originally skipped: accept() is retried through EINTR (a SIGTERM aimed at
// graceful drain must not eat an unrelated connection), and descriptor
// exhaustion (EMFILE/ENFILE, plus the ENOBUFS/ENOMEM kernel variants) backs
// off with a diagnostic instead of silently spinning or dropping the
// listener — under exhaustion the pending connection stays queued in the
// listen backlog and is served once descriptors free up.
#pragma once

#include <string>

namespace mdmesh {

/// Backlog for HTTP listeners. The publisher's original 8 was sized for one
/// scraper; the experiment service takes bursts of concurrent submissions,
/// and a too-short backlog turns those into connection refusals.
inline constexpr int kListenBacklog = 64;

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 picks an ephemeral
/// port). Returns the fd, with the actually-bound port in *bound_port, or
/// -1 with *error describing the failure.
int ListenLoopback(int port, int backlog, int* bound_port, std::string* error);

/// Result of one accept attempt.
enum class AcceptStatus {
  kAccepted,   ///< *client_fd is a connected socket
  kRetry,      ///< transient (would-block / connection aborted) — poll again
  kExhausted,  ///< fd exhaustion; caller should back off (diag set)
  kFatal,      ///< listener is broken (diag set)
};

/// One hardened accept() on `listen_fd`: loops internally on EINTR, maps
/// resource exhaustion and transient errors to statuses the caller can act
/// on. `diag` (may be null) receives a printable reason for kExhausted and
/// kFatal.
AcceptStatus AcceptClient(int listen_fd, int* client_fd, std::string* diag);

/// One poll+recv round with a deadline. Returns the byte count (> 0), 0 on
/// orderly peer close, -1 on timeout, -2 on socket error. EINTR retries
/// internally without restarting the timeout from scratch.
int RecvSome(int fd, char* buf, std::size_t cap, int timeout_ms);

/// Writes the whole buffer; returns false on error/short write.
bool SendAll(int fd, const std::string& data);

/// close() wrapper (no-op on fd < 0).
void CloseFd(int fd);

}  // namespace mdmesh
