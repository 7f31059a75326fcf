#include "net/acceptor.hpp"

#include <chrono>
#include <future>
#include <utility>

namespace stampede::net {

Acceptor::Acceptor(EventLoop& loop, int listen_fd, OnAccept on_accept)
    : loop_(&loop), listen_fd_(listen_fd), on_accept_(std::move(on_accept)) {
  (void)common::set_nonblocking(listen_fd_);
  loop_->defer([this] {
    if (!stopped_ && !watch()) pause();
  });
}

void Acceptor::stop() {
  if (!loop_->in_loop_thread()) {
    std::promise<void> done;
    loop_->post([this, &done] {
      stop();
      done.set_value();
    });
    done.get_future().wait();
    return;
  }
  stopped_ = true;
  loop_->unwatch(listen_fd_);
  if (rearm_ != 0) loop_->cancel(rearm_);
  rearm_ = 0;
}

bool Acceptor::watch() {
  return loop_->watch(listen_fd_, EventLoop::kReadable,
                      [this](std::uint32_t) { drain(); });
}

void Acceptor::pause() {
  loop_->unwatch(listen_fd_);
  rearm_ = loop_->schedule(std::chrono::milliseconds(100), [this] {
    rearm_ = 0;
    // A failed re-registration means we are still out of resources.
    if (!stopped_ && !watch()) pause();
  });
}

void Acceptor::drain() {
  while (!stopped_) {
    int accept_err = 0;
    auto client = common::accept_nonblocking(listen_fd_, &accept_err);
    if (!client.valid()) {
      if (accept_err != 0) pause();  // EAGAIN (0) just means drained.
      return;
    }
    on_accept_(std::move(client));
  }
}

}  // namespace stampede::net
