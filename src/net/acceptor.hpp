#pragma once
// net::Acceptor — the one accept path of HttpServer, BusServer and
// cluster::ShardHost (DESIGN.md §12 "Servers on the reactor").
//
// The listen fd is watched on an EventLoop; each readiness drains the
// backlog with common::accept_nonblocking and hands every client to the
// callback on the loop thread. An EMFILE-class failure leaves the client
// queued and the fd readable, so an immediate retry would spin: the
// acceptor unwatches the fd and re-arms it after 100 ms instead.

#include <functional>

#include "common/socket.hpp"
#include "net/event_loop.hpp"

namespace stampede::net {

class Acceptor {
 public:
  using OnAccept = std::function<void(common::SocketFd client)>;

  /// Accepting begins once `loop` runs. `listen_fd` stays owned by the
  /// caller; it is made non-blocking.
  Acceptor(EventLoop& loop, int listen_fd, OnAccept on_accept);

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Stops accepting. From another thread it blocks until the loop has
  /// dropped the watch, so the loop must be running. Idempotent.
  void stop();

 private:
  // Loop thread only.
  bool watch();
  void pause();
  void drain();

  EventLoop* loop_;
  int listen_fd_;
  OnAccept on_accept_;
  bool stopped_ = false;
  EventLoop::TimerId rearm_ = 0;
};

}  // namespace stampede::net
