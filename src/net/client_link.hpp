#pragma once
// net::ClientLink — one outbound frame connection (BusClient → BusServer,
// Router → ShardHost, primary → follower), living exactly as long as
// the TCP connection.
//
// Connecting retries with exponential backoff and ±20% jitter, so a
// restarting fleet does not reconnect in lockstep: bounded by
// Options::connect_attempts (exhaustion throws instead of hanging), or
// unbounded until the caller's stop token fires. The HELLO names the
// service by its magic (kBusMagic, kClusterMagic); a peer serving
// another service or protocol version answers kError and the link is
// refused. A link never reconnects itself: peers hold state (routed
// applies, replication offsets, consumer subscriptions), so the loss is
// reported to the owner through the down handler and the owner decides
// — BusClient reconnects and replays its topology, the cluster Router
// fails over, a ShardHost stops gating on its follower.
//
// After start(), one reader thread decodes frames: heartbeats are
// dropped, nonzero channels complete request() waiters, and channel-0
// frames go to the owner's handler. Senders write the socket from their
// own thread under a mutex. request() is thread-safe and may overlap —
// replies correlate by channel.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>

#include "common/errors.hpp"
#include "common/socket.hpp"
#include "net/frame.hpp"

namespace stampede::net {

/// A link failure: unreachable or refusing peer, lost connection, or a
/// request that timed out.
class LinkError : public common::StampedeError {
 public:
  using common::StampedeError::StampedeError;
};

/// The peer answered a request with kError; what() is its reason.
class RequestRejected : public LinkError {
 public:
  using LinkError::LinkError;
};

struct ClientLinkOptions {
  /// Connect + handshake attempts before the constructor throws; 0
  /// retries until connected or the stop token fires.
  int connect_attempts = 5;
  int backoff_ms = 50;  ///< First retry delay; doubles per attempt.
  int max_backoff_ms = 2000;
  /// Bounds the wait for HELLO_OK and for every request() reply.
  int request_timeout_ms = 30000;
  std::uint64_t jitter_seed = 0;  ///< 0 = seed from std::random_device.
};

class ClientLink {
 public:
  using Options = ClientLinkOptions;

  /// Channel-0 frames (unsolicited pushes) — called on the reader
  /// thread. Heartbeats are filtered out before this fires.
  using FrameHandler = std::function<void(const Frame&)>;
  /// Fires exactly once, on the reader thread, when the reader stops
  /// (peer hangup, corrupt stream, send failure or close()).
  using DownHandler = std::function<void()>;

  /// Connects and runs the HELLO handshake for the service `magic`.
  /// Throws LinkError when the attempts run out, the stop token fires,
  /// or the peer refuses the handshake (no retry: the answer would not
  /// change).
  ClientLink(common::HostAddr addr, std::string_view magic,
             Options options = {}, std::stop_token stop = {});
  ~ClientLink();

  ClientLink(const ClientLink&) = delete;
  ClientLink& operator=(const ClientLink&) = delete;

  /// Spawns the reader thread. Call once, before any request().
  void start(FrameHandler on_unsolicited, DownHandler on_down);

  /// Writes one encoded frame. False once the link is down.
  bool send(std::string_view bytes);

  /// Allocates a fresh nonzero channel for a request frame.
  [[nodiscard]] std::uint32_t next_channel();

  /// Sends `bytes` (a frame carrying `channel`) and blocks for the
  /// reply on that channel. Throws RequestRejected on a kError reply,
  /// LinkError on timeout or link loss.
  [[nodiscard]] Frame request(std::uint32_t channel, std::string_view bytes);

  [[nodiscard]] bool alive() const noexcept { return !down_.load(); }

  /// Tears the connection down (idempotent): wakes the reader, blocked
  /// senders and every request() waiter.
  void close();

 private:
  /// One HELLO exchange on fd_. False on a transport failure (worth a
  /// retry); throws LinkError when the peer answers with a refusal.
  bool handshake(std::string_view magic, const std::stop_token& stop);
  void reader();
  void read_frames();
  void dispatch(const Frame& frame);

  common::HostAddr addr_;
  Options options_;
  common::SocketFd fd_;
  std::string carry_;  ///< Bytes read past HELLO_OK, handed to the reader.

  std::mutex send_mutex_;
  std::atomic<bool> down_{false};

  FrameHandler on_unsolicited_;
  DownHandler on_down_;

  struct Pending {
    bool done = false;
    Frame reply;
  };
  /// Guards pending_ and next_channel_; down_ flips under it.
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_channel_ = 1;

  std::thread reader_thread_;
};

}  // namespace stampede::net
