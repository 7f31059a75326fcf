#pragma once
// net::BusClient — a bus::IBus whose broker lives in another process,
// reached over the frame protocol in net/frame.hpp.
//
// Drop-in for bus::Broker wherever code consumes the IBus surface
// (BpPublisher, RabbitAppender, loader::QueuePump): declare topology,
// publish, basic_get, ack/nack, queue_stats — the transport is
// invisible to the caller.
//
// Reconnection: an IO thread owns the connection's lifecycle. It
// connects a net::ClientLink (retrying with jittered backoff until
// close()), replays every exchange/queue/binding this client ever
// declared and re-issues CONSUME for every queue with an active pull
// loop; then it flushes coalesced acks and sends heartbeats until the
// link reports its loss, and starts over — callers just see
// basic_get stall until the stream resumes.
//
// Delivery tags and restarts: a restarted broker numbers deliveries
// from 1 again, so a tag from before the reconnect could alias a fresh
// message. Tags handed to callers are therefore epoch-stamped —
// local_tag = (connection_epoch << 48) | wire_tag — and an ack/nack
// whose epoch is not current is dropped (counted in
// stampede_net_stale_acks_total). The broker nacked those deliveries
// when the old connection died, so it redelivers them with
// redelivered=true and the loader's replay dedup absorbs the duplicate
// — at-least-once end to end (DESIGN.md "Delivery guarantees").
//
// Batching: concurrent publish() calls group-commit into one kPublish
// frame, and acks coalesce into one kAck frame per flush point.
//
// Flow control: deliveries pushed by the server land in a bounded
// per-queue prefetch buffer. When a consumer stops draining it, the
// link's reader thread blocks on the push, stops reading the socket,
// the kernel receive window closes, and backpressure propagates to the
// server's bounded outbound queue and from there to the broker.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bus/ibus.hpp"
#include "bus/message.hpp"
#include "bus/queue.hpp"
#include "common/concurrent_queue.hpp"
#include "net/client_link.hpp"
#include "net/frame.hpp"

namespace stampede::net {

/// Where the broker listens. Reconnect backoff is ClientLinkOptions'
/// default; request timeout, prefetch depth, heartbeat cadence and ack
/// batch size are constants in bus_client.cpp.
struct BusClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
};

class BusClient final : public bus::IBus {
 public:
  /// Starts the IO thread immediately; connection is established (and
  /// re-established) in the background. Use wait_connected() to block
  /// until the first handshake completes.
  explicit BusClient(BusClientOptions options);
  ~BusClient() override;

  BusClient(const BusClient&) = delete;
  BusClient& operator=(const BusClient&) = delete;

  /// Blocks until connected or the timeout elapses. Returns connected.
  bool wait_connected(int timeout_ms);
  [[nodiscard]] bool connected() const noexcept {
    return connected_.load(std::memory_order_acquire);
  }
  /// Bumps on every successful handshake; 1 after the first connect.
  [[nodiscard]] std::uint64_t connection_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  // -- bus::IBus ------------------------------------------------------------

  void declare_exchange(const std::string& name,
                        bus::ExchangeType type) override;
  void declare_queue(const std::string& name,
                     bus::QueueOptions options = {}) override;
  void bind(const std::string& queue, const std::string& exchange,
            const std::string& binding_key) override;

  /// Hands the message to the transport (blocking while disconnected).
  /// Returns 1 once written to the socket — routing happens broker-side
  /// and, like AMQP basic.publish, is not confirmed per message.
  /// Group commit: the caller appends under the publish mutex; one
  /// appender becomes the flusher and sends every entry that
  /// accumulated while it was writing as one kPublish frame.
  std::size_t publish(const std::string& exchange,
                      bus::Message message) override;

  /// First call on a queue starts a server-push CONSUME; this and later
  /// calls pop from the local prefetch buffer.
  [[nodiscard]] std::optional<bus::Delivery> basic_get(
      const std::string& queue, const std::string& consumer_tag,
      int timeout_ms = 0) override;

  bool ack(const std::string& queue, std::uint64_t delivery_tag) override;
  bool nack(const std::string& queue, std::uint64_t delivery_tag,
            bool requeue) override;

  [[nodiscard]] bus::QueueStats queue_stats(
      const std::string& queue) const override;

  /// Stops the IO thread and fails all blocked callers. Idempotent; the
  /// destructor calls it.
  void close();

 private:
  using Buffer = common::ConcurrentQueue<WireDelivery>;

  /// The IO thread: connect, replay, tick until the link dies; repeat
  /// until close().
  void run(const std::stop_token& stop);
  /// Sends the recorded topology and CONSUMEs on a fresh link.
  bool replay(ClientLink& link);
  /// Flushes acks and sends heartbeats until `link` dies or stop.
  void tick(ClientLink& link, const std::stop_token& stop);
  /// Channel-0 frames from the link's reader thread.
  void on_frame(const Frame& frame);

  /// Sends on the live link. False when disconnected or the send fails.
  bool send_now(std::string_view bytes);
  /// Blocks until connected, then sends; retries across reconnects.
  /// Throws common::BusError once the client is closed.
  void send_blocking(const std::string& bytes);
  /// Sends the frame `build(channel)` and waits for its reply; retries
  /// the whole exchange on connection loss. Throws common::BusError on
  /// a kError reply or when closed.
  Frame request(const std::function<std::string(std::uint32_t)>& build);

  std::shared_ptr<Buffer> buffer_for(const std::string& queue);

  /// Epoch-stamps and enqueues one inbound delivery (blocking push into
  /// the prefetch buffer — the client half of the backpressure chain).
  void enqueue_delivery(WireDelivery delivery);
  /// Flushes buffered acks as one kAck frame (stale epochs are
  /// dropped). No-op when nothing is pending.
  void flush_acks();

  BusClientOptions options_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex state_mutex_;    ///< Guards the cv + buffers_.
  std::condition_variable state_cv_;  ///< Connected-state changes, link loss.
  std::map<std::string, std::shared_ptr<Buffer>> buffers_;

  /// The live link; null while disconnected. Callers use it under a
  /// shared lock and the IO thread swaps it under an exclusive one, so
  /// a link is destroyed (its reader joined) only on the IO thread and
  /// only once no caller is inside it.
  mutable std::shared_mutex link_mutex_;
  std::unique_ptr<ClientLink> link_;

  // Topology replayed after every reconnect, in declaration order.
  struct TopologyOp {
    enum class Kind : std::uint8_t { kExchange, kQueue, kBind } kind;
    std::string a, b, c;
    bus::ExchangeType exchange_type = bus::ExchangeType::kDirect;
    bus::QueueOptions queue_options;
  };
  std::mutex topology_mutex_;
  std::vector<TopologyOp> topology_;
  std::vector<std::string> consumed_;  ///< Queues with an active CONSUME.

  // Publish group-commit state. Generations let non-flusher appenders
  // wait until THEIR entry hit the socket, so publish() keeps its
  // written-when-it-returns contract.
  std::mutex publish_mutex_;
  std::condition_variable publish_cv_;
  std::vector<WirePublish> publish_pending_;
  bool publish_flusher_active_ = false;
  std::uint64_t publish_append_gen_ = 0;
  std::uint64_t publish_flushed_gen_ = 0;

  // Ack coalescing state. Tags stored epoch-stamped and re-checked at
  // flush time.
  std::mutex ack_mutex_;
  std::vector<WireAck> ack_pending_;

  std::jthread io_;  ///< Last: joined before the state it uses dies.
};

}  // namespace stampede::net
