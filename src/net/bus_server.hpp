#pragma once
// net::BusServer — puts a bus::Broker on the TCP wire (DESIGN.md
// "Network substrate" + §12 "Event-driven network core"; the
// RabbitMQ-broker-on-the-network role of paper §IV-C, Fig. 1).
//
// Connections are multiplexed over N EventLoop workers (epoll reactors)
// instead of thread-per-connection: worker 0 also accepts (the shared
// net::Acceptor, with its EMFILE backoff) and assigns each accepted
// socket round-robin to a worker, and ALL protocol state for a
// connection lives on its worker thread. The only per-connection
// threads left are consumer pumps — one per CONSUME'd queue — because
// the broker's basic_get is a blocking call; a pump drains the broker
// in batches and feeds the connection's bounded outbound buffer.
//
// Backpressure: Connection::send from a pump blocks while the outbound
// buffer is at its byte capacity, so a slow consumer stalls its own
// pump — the broker keeps the messages, the client's TCP window fills,
// and memory stays bounded; nothing is dropped.
//
// Batching: a pump packs its drain into one kDeliver frame, and
// clients pack publish bursts into one kPublish frame and acks into one
// kAck frame — many BP events per TCP segment.
//
// Handshake: a connection's first frame must be a HELLO carrying
// kBusMagic and kProtocolVersion; anything else is answered with kError
// and a close.
//
// Failure: when a connection dies (EOF, socket error, idle past the
// timeout) a reaper thread joins its pumps and nack-requeues every
// delivery handed to it and not yet acked, so the broker's redelivery /
// dead-letter machinery takes over exactly as if an in-process consumer
// had crashed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bus/broker.hpp"
#include "common/concurrent_queue.hpp"
#include "common/socket.hpp"
#include "net/acceptor.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace stampede::net {

class Connection;

/// The heartbeat interval, idle timeout and delivery batch size are
/// constants in bus_server.cpp.
struct BusServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read back with port().
  /// EventLoop workers connections are spread across.
  std::size_t workers = 1;
  /// Outbound BYTES buffered per connection before the consumer pumps
  /// block (the backpressure bound).
  std::size_t outbound_capacity = 1 << 20;
};

class BusServer {
 public:
  /// Binds immediately (throws std::runtime_error on failure); serving
  /// starts with start().
  BusServer(bus::Broker& broker, BusServerOptions options = {});
  ~BusServer();

  BusServer(const BusServer&) = delete;
  BusServer& operator=(const BusServer&) = delete;

  void start();
  /// Drops every connection (nacking in-flight deliveries), then stops
  /// the workers and joins all threads. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] std::size_t active_connections() const;

 private:
  struct ServerConn;

  void attach(const std::shared_ptr<ServerConn>& sconn);
  /// Consumes complete frames out of `data`; returns bytes eaten.
  std::size_t on_data(const std::shared_ptr<ServerConn>& sconn,
                      std::string_view data);
  /// Dispatches one inbound frame (worker thread). False = protocol
  /// violation; the connection is flushed and dropped.
  bool handle_frame(const std::shared_ptr<ServerConn>& sconn,
                    const Frame& frame);
  void start_consumer_pump(const std::shared_ptr<ServerConn>& sconn,
                           const std::string& queue);
  /// Heartbeat/idle sweep, one periodic timer per worker.
  void sweep_worker(EventLoop& loop);
  /// Reaper-thread half of teardown: joins the connection's pumps and
  /// nacks its in-flight deliveries back onto the broker.
  void reap(const std::shared_ptr<ServerConn>& sconn);

  bus::Broker* broker_;
  BusServerOptions options_;
  common::SocketFd listen_fd_;
  int port_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<Acceptor> accept_;  ///< On loops_[0].
  std::jthread reaper_;
  common::ConcurrentQueue<std::shared_ptr<ServerConn>> reap_queue_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> conn_seq_{0};
  std::size_t next_loop_ = 0;  ///< Round robin; loops_[0] thread only.

  mutable std::mutex conns_mutex_;
  std::condition_variable conns_cv_;
  std::unordered_map<const ServerConn*, std::shared_ptr<ServerConn>> conns_;
};

}  // namespace stampede::net
