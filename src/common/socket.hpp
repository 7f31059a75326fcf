#pragma once
// Shared raw-socket helpers for the embedded servers (dashboard HTTP,
// net::BusServer/BusClient). Plain POSIX TCP, loopback-oriented, no
// external dependencies: RAII fds, bind/listen/accept with poll-based
// timeouts, and full-buffer read/write loops that handle short
// transfers, EINTR and SIGPIPE (every send uses MSG_NOSIGNAL, so a
// vanished peer surfaces as an error return instead of killing the
// process).
//
// Two call families live here:
//   - Blocking helpers (send_all, recv_some, accept_client) used by the
//     synchronous client paths and tests.
//   - Non-blocking primitives (set_nonblocking, send_some,
//     recv_nonblocking, accept_nonblocking) used by the net::EventLoop
//     reactor under the bus, cluster and dashboard servers. These never
//     park the caller: they report kWouldBlock/-EAGAIN and let the
//     event loop re-arm interest.

#include <cstddef>
#include <cstdint>
#include <string>

namespace stampede::common {

/// A TCP endpoint ("host:port" in specs and error messages).
struct HostAddr {
  std::string host;
  int port = 0;

  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
  friend bool operator==(const HostAddr&, const HostAddr&) = default;
};

/// Move-only RAII file descriptor; closes on destruction.
class SocketFd {
 public:
  SocketFd() = default;
  explicit SocketFd(int fd) noexcept : fd_(fd) {}
  ~SocketFd() { reset(); }

  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  SocketFd(SocketFd&& other) noexcept : fd_(other.release()) {}
  SocketFd& operator=(SocketFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes now (idempotent, EINTR-safe).
  void reset() noexcept;

  /// shutdown(SHUT_RDWR): unblocks a peer thread parked in poll/recv on
  /// this fd without racing the close (the fd number stays reserved).
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Socket-option helpers (each returns false when setsockopt/fcntl fails)

/// O_NONBLOCK on/off.
bool set_nonblocking(int fd, bool enabled = true);
/// TCP_NODELAY: no Nagle batching — the framing layer coalesces writes
/// itself, so delaying small segments only adds latency.
bool set_tcp_nodelay(int fd, bool enabled = true);
/// SO_REUSEADDR: rebind a listening port still in TIME_WAIT (server
/// restarts).
bool set_reuseaddr(int fd, bool enabled = true);

// ---------------------------------------------------------------------------
// Setup

/// Binds and listens on `host`:`port` (port 0 = ephemeral) with
/// SO_REUSEADDR. `bound_port` (may be null) receives the actual port.
/// Throws std::runtime_error on failure. `host` must be a dotted-quad
/// IPv4 literal or "localhost".
[[nodiscard]] SocketFd listen_tcp(const std::string& host, int port,
                                  int backlog, int* bound_port);

/// Polls the listening fd up to `timeout_ms`, then accept_nonblocking()
/// once (a test helper; servers accept through net::Acceptor). Invalid
/// SocketFd on timeout or error.
[[nodiscard]] SocketFd accept_client(int listen_fd, int timeout_ms);

/// Non-blocking accept (net::Acceptor's drain). Invalid SocketFd when
/// the backlog is drained or on a persistent failure, which
/// `fatal_errno` (may be null) reports (EMFILE/ENFILE/ENOMEM; else 0).
/// The accepted fd has TCP_NODELAY set but inherits blocking mode.
[[nodiscard]] SocketFd accept_nonblocking(int listen_fd,
                                          int* fatal_errno = nullptr);

/// Connects to `host`:`port` (EINTR-safe) and sets TCP_NODELAY.
/// Invalid SocketFd on failure.
[[nodiscard]] SocketFd connect_tcp(const std::string& host, int port);

// ---------------------------------------------------------------------------
// Blocking transfer loops

/// Writes the whole buffer, looping over short sends and EINTR. False
/// on error (peer gone). MSG_NOSIGNAL: a dead peer is a return value,
/// never a SIGPIPE.
bool send_all(int fd, const void* data, std::size_t size);

/// Result of a single timed read.
enum class RecvStatus { kData, kClosed, kTimeout, kError };

/// Polls up to `timeout_ms` then recv()s once into `buf`. On kData,
/// `received` holds the byte count (> 0). EINTR during the poll or the
/// recv reports kTimeout so callers simply re-enter their read loop.
RecvStatus recv_some(int fd, void* buf, std::size_t size, int timeout_ms,
                     std::size_t* received);

// ---------------------------------------------------------------------------
// Non-blocking transfer primitives (reactor building blocks)

/// One non-blocking send attempt handling partial writes: returns the
/// byte count actually queued (possibly 0 when the socket buffer is
/// full), or -1 on a fatal socket error. Loops only over EINTR.
std::ptrdiff_t send_some(int fd, const void* data, std::size_t size);

/// One non-blocking recv attempt. kTimeout doubles as "would block".
RecvStatus recv_nonblocking(int fd, void* buf, std::size_t size,
                            std::size_t* received);

}  // namespace stampede::common
