#include "net/bus_client.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/errors.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::net {

namespace {

using Clock = std::chrono::steady_clock;

struct ClientTelemetry {
  telemetry::Counter& connects =
      telemetry::registry().counter("stampede_net_client_connects_total");
  telemetry::Counter& stale_acks =
      telemetry::registry().counter("stampede_net_stale_acks_total");
  telemetry::Counter& async_errors = telemetry::registry().counter(
      "stampede_net_client_async_errors_total");
  telemetry::Counter& publish_batches = telemetry::registry().counter(
      "stampede_net_client_publish_batches_total");
  telemetry::Counter& ack_batches = telemetry::registry().counter(
      "stampede_net_client_ack_batches_total");
  telemetry::Histogram& request_rtt = telemetry::registry().histogram(
      "stampede_net_request_rtt_seconds",
      telemetry::HistogramOptions{1e-6, 4.0, 16});
};

ClientTelemetry& client_telemetry() {
  static ClientTelemetry instance;
  return instance;
}

/// Wire delivery tags fit 48 bits; the top 16 carry the connection
/// epoch so acks can be matched to the connection they came in on.
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << 48) - 1;
constexpr int kEpochShift = 48;

/// How long a request/reply op (declare, bind, stats) waits for its
/// reply before retrying on the next connection.
constexpr int kRequestTimeoutMs = 5000;
/// Deliveries buffered per consumed queue before the link's reader
/// stops reading the socket (the client half of the backpressure
/// chain).
constexpr std::size_t kPrefetch = 64;
/// Heartbeat cadence; keeps the server's idle timeout at bay.
constexpr std::chrono::milliseconds kHeartbeatInterval{1000};
/// Acks buffered before an eager kAck flush (they also flush when the
/// next delivery arrives, on every IO-thread tick and before any
/// request/reply op).
constexpr std::size_t kAckBatchMax = 64;

}  // namespace

BusClient::BusClient(BusClientOptions options) : options_(std::move(options)) {
  io_ = std::jthread([this](std::stop_token stop) { run(stop); });
}

BusClient::~BusClient() { close(); }

bool BusClient::wait_connected(int timeout_ms) {
  std::unique_lock lock{state_mutex_};
  state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] {
    return connected_.load(std::memory_order_acquire) ||
           closed_.load(std::memory_order_acquire);
  });
  return connected_.load(std::memory_order_acquire);
}

void BusClient::close() {
  if (closed_.load(std::memory_order_acquire)) return;
  flush_acks();  // Best effort; unflushed acks just redeliver.
  if (closed_.exchange(true)) return;
  io_.request_stop();
  {
    const std::shared_lock lock{link_mutex_};
    if (link_) link_->close();
  }
  {
    const std::scoped_lock lock{state_mutex_};
    for (auto& [queue, buffer] : buffers_) buffer->close();
  }
  state_cv_.notify_all();
  publish_cv_.notify_all();  // Waiting publishers check closed_ and bail.
  if (io_.joinable()) io_.join();
}

// -- IO thread --------------------------------------------------------------

void BusClient::run(const std::stop_token& stop) {
  ClientLinkOptions link_options;
  link_options.connect_attempts = 0;  // A bus client never gives up.
  link_options.request_timeout_ms = kRequestTimeoutMs;
  const common::HostAddr addr{options_.host, options_.port};
  while (!stop.stop_requested()) {
    std::unique_ptr<ClientLink> link;
    try {
      link = std::make_unique<ClientLink>(addr, kBusMagic, link_options, stop);
    } catch (const LinkError&) {
      // Stopped, or a peer that refuses the handshake: wait the longest
      // backoff before asking again.
      std::unique_lock lock{state_mutex_};
      state_cv_.wait_for(
          lock, std::chrono::milliseconds(link_options.max_backoff_ms),
          [&] { return stop.stop_requested(); });
      continue;
    }
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    link->start([this](const Frame& frame) { on_frame(frame); },
                [this] {
                  // Taking the mutex orders the loss before tick()'s
                  // predicate check, so its wait cannot miss it.
                  { const std::scoped_lock lock{state_mutex_}; }
                  state_cv_.notify_all();
                });
    ClientLink& live = *link;
    {
      // Replay and install under the topology lock: a declare or first
      // basic_get either lands in the replay or finds the link installed.
      const std::scoped_lock lock{topology_mutex_};
      if (!replay(live)) continue;
      const std::unique_lock link_lock{link_mutex_};
      link_ = std::move(link);
    }
    client_telemetry().connects.inc();
    {
      const std::scoped_lock lock{state_mutex_};
      connected_.store(true, std::memory_order_release);
    }
    state_cv_.notify_all();

    tick(live, stop);

    {
      const std::scoped_lock lock{state_mutex_};
      connected_.store(false, std::memory_order_release);
    }
    std::unique_ptr<ClientLink> dead;
    {
      const std::unique_lock link_lock{link_mutex_};
      dead = std::move(link_);
    }
    state_cv_.notify_all();
    // Joins the reader — outside link_mutex_, which the reader's ack
    // flushes take shared.
    dead.reset();
  }
}

bool BusClient::replay(ClientLink& link) {
  // Fire-and-forget: each op already succeeded on a previous connection
  // (or is about to get a reply through request()); redeclares are
  // idempotent broker-side.
  for (const auto& op : topology_) {
    const std::uint32_t channel = link.next_channel();
    std::string bytes;
    switch (op.kind) {
      case TopologyOp::Kind::kExchange:
        bytes = encode_declare_exchange(channel, op.a, op.exchange_type);
        break;
      case TopologyOp::Kind::kQueue:
        bytes = encode_declare_queue(channel, op.a, op.queue_options);
        break;
      case TopologyOp::Kind::kBind:
        bytes = encode_bind(channel, op.a, op.b, op.c);
        break;
    }
    if (!link.send(bytes)) return false;
  }
  for (const auto& queue : consumed_) {
    if (!link.send(encode_consume(link.next_channel(), queue))) return false;
  }
  return true;
}

void BusClient::tick(ClientLink& link, const std::stop_token& stop) {
  auto last_heartbeat = Clock::now();
  const auto done = [&] { return stop.stop_requested() || !link.alive(); };
  std::unique_lock lock{state_mutex_};
  while (!done()) {
    state_cv_.wait_for(lock, std::chrono::milliseconds(100), done);
    lock.unlock();
    // Acks accumulated since the last flush point ride out now, so
    // coalescing adds at most one tick of latency.
    flush_acks();
    const auto now = Clock::now();
    if (now - last_heartbeat >= kHeartbeatInterval) {
      last_heartbeat = now;
      (void)link.send(encode_heartbeat());
    }
    lock.lock();
  }
}

void BusClient::on_frame(const Frame& frame) {
  if (frame.type == FrameType::kError) {
    client_telemetry().async_errors.inc();
    return;
  }
  std::vector<WireDelivery> batch;
  if (frame.type != FrameType::kDeliver || !parse_deliver(frame, &batch)) {
    return;
  }
  flush_acks();
  for (auto& delivery : batch) enqueue_delivery(std::move(delivery));
}

void BusClient::enqueue_delivery(WireDelivery delivery) {
  // Stamp the tag with the connection it arrived on (see class doc).
  delivery.delivery_tag =
      (epoch_.load(std::memory_order_acquire) << kEpochShift) |
      (delivery.delivery_tag & kTagMask);
  auto buffer = buffer_for(delivery.queue);
  // Blocking push: a full prefetch buffer parks the link's reader,
  // which is exactly the client half of the backpressure chain.
  (void)buffer->push(std::move(delivery));
}

// -- send paths -------------------------------------------------------------

bool BusClient::send_now(std::string_view bytes) {
  const std::shared_lock lock{link_mutex_};
  return link_ && link_->send(bytes);
}

void BusClient::send_blocking(const std::string& bytes) {
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) {
      throw common::BusError("BusClient closed");
    }
    if (connected_.load(std::memory_order_acquire) && send_now(bytes)) return;
    std::unique_lock lock{state_mutex_};
    state_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
      return connected_.load(std::memory_order_acquire) ||
             closed_.load(std::memory_order_acquire);
    });
  }
}

Frame BusClient::request(
    const std::function<std::string(std::uint32_t)>& build) {
  // Buffered acks go first on the same stream, so a queue_stats reply
  // always reflects every ack issued before the call (callers poll
  // stats exactly this way).
  flush_acks();
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) {
      throw common::BusError("BusClient closed");
    }
    if (connected_.load(std::memory_order_acquire)) {
      const std::shared_lock lock{link_mutex_};
      if (link_) {
        const auto started = Clock::now();
        const std::uint32_t channel = link_->next_channel();
        try {
          Frame reply = link_->request(channel, build(channel));
          client_telemetry().request_rtt.observe(
              std::chrono::duration<double>(Clock::now() - started).count());
          return reply;
        } catch (const RequestRejected& e) {
          throw common::BusError(e.what());
        } catch (const LinkError&) {
          // Timeout or connection loss mid-exchange: retry, on the next
          // connection if this one is gone (ops are idempotent
          // broker-side).
        }
      }
    }
    std::unique_lock lock{state_mutex_};
    state_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
      return connected_.load(std::memory_order_acquire) ||
             closed_.load(std::memory_order_acquire);
    });
  }
}

// -- bus::IBus --------------------------------------------------------------

void BusClient::declare_exchange(const std::string& name,
                                 bus::ExchangeType type) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kExchange;
    op.a = name;
    op.exchange_type = type;
    topology_.push_back(std::move(op));
  }
  (void)request([&](std::uint32_t channel) {
    return encode_declare_exchange(channel, name, type);
  });
}

void BusClient::declare_queue(const std::string& name,
                              bus::QueueOptions options) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kQueue;
    op.a = name;
    op.queue_options = options;
    topology_.push_back(std::move(op));
  }
  (void)request([&](std::uint32_t channel) {
    return encode_declare_queue(channel, name, options);
  });
}

void BusClient::bind(const std::string& queue, const std::string& exchange,
                     const std::string& binding_key) {
  {
    const std::scoped_lock lock{topology_mutex_};
    TopologyOp op;
    op.kind = TopologyOp::Kind::kBind;
    op.a = queue;
    op.b = exchange;
    op.c = binding_key;
    topology_.push_back(std::move(op));
  }
  (void)request([&](std::uint32_t channel) {
    return encode_bind(channel, queue, exchange, binding_key);
  });
}

std::size_t BusClient::publish(const std::string& exchange,
                               bus::Message message) {
  std::uint64_t my_gen = 0;
  {
    std::unique_lock lock{publish_mutex_};
    publish_pending_.push_back(WirePublish{exchange, std::move(message)});
    my_gen = ++publish_append_gen_;
    if (publish_flusher_active_) {
      // A flusher is already writing; it will pick this entry up on its
      // next drain. Wait for our generation so publish() still means
      // "written to the socket" when it returns.
      publish_cv_.wait(lock, [&] {
        return publish_flushed_gen_ >= my_gen ||
               closed_.load(std::memory_order_acquire);
      });
      if (publish_flushed_gen_ < my_gen) {
        throw common::BusError("BusClient closed");
      }
      return 1;
    }
    publish_flusher_active_ = true;
  }
  // Appender-becomes-flusher: drain every entry that accumulates while
  // we hold the socket — a lone publisher writes a list of one with
  // zero added latency; concurrent publishers group-commit into one
  // kPublish frame (many BP events per TCP segment).
  for (;;) {
    std::vector<WirePublish> batch;
    std::uint64_t flushed_gen = 0;
    {
      const std::scoped_lock lock{publish_mutex_};
      if (publish_pending_.empty()) {
        publish_flusher_active_ = false;
        break;
      }
      batch.swap(publish_pending_);
      flushed_gen = publish_append_gen_;
    }
    if (batch.size() > 1) client_telemetry().publish_batches.inc();
    try {
      send_blocking(encode_publish(0, batch));
    } catch (...) {
      // Closed mid-flush: release the flusher role and wake waiters
      // (they observe closed_ and throw for themselves).
      {
        const std::scoped_lock lock{publish_mutex_};
        publish_flusher_active_ = false;
      }
      publish_cv_.notify_all();
      throw;
    }
    {
      const std::scoped_lock lock{publish_mutex_};
      publish_flushed_gen_ =
          std::max(publish_flushed_gen_, flushed_gen);
    }
    publish_cv_.notify_all();
  }
  return 1;
}

std::optional<bus::Delivery> BusClient::basic_get(
    const std::string& queue, const std::string& /*consumer_tag*/,
    int timeout_ms) {
  bool fresh = false;
  {
    const std::scoped_lock lock{topology_mutex_};
    if (std::find(consumed_.begin(), consumed_.end(), queue) ==
        consumed_.end()) {
      consumed_.push_back(queue);
      fresh = true;
    }
  }
  auto buffer = buffer_for(queue);
  if (fresh) {
    // Fire-and-forget: nobody waits for the reply, and every reconnect
    // re-sends the CONSUME from `consumed_` anyway.
    const std::shared_lock lock{link_mutex_};
    if (link_) (void)link_->send(encode_consume(link_->next_channel(), queue));
  }
  auto wire = timeout_ms <= 0
                  ? buffer->try_pop()
                  : buffer->pop_for(std::chrono::milliseconds(timeout_ms));
  if (!wire) return std::nullopt;
  return bus::Delivery::make(wire->delivery_tag, std::move(wire->consumer_tag),
                             std::move(wire->exchange), wire->redelivered,
                             std::move(wire->message));
}

bool BusClient::ack(const std::string& queue, std::uint64_t delivery_tag) {
  if ((delivery_tag >> kEpochShift) !=
      epoch_.load(std::memory_order_acquire)) {
    // The connection this delivery arrived on is gone; the server
    // already nack-requeued it, so acking now could hit a reused tag.
    client_telemetry().stale_acks.inc();
    return false;
  }
  // Coalesce: tags park (epoch-stamped) until the next flush point — an
  // inbound delivery, the IO thread's tick, a request/reply op, or the
  // eager cap here.
  bool eager = false;
  {
    const std::scoped_lock lock{ack_mutex_};
    ack_pending_.push_back(WireAck{queue, delivery_tag});
    eager = ack_pending_.size() >= kAckBatchMax;
  }
  if (eager) flush_acks();
  return true;
}

void BusClient::flush_acks() {
  std::vector<WireAck> batch;
  {
    const std::scoped_lock lock{ack_mutex_};
    if (ack_pending_.empty()) return;
    batch.swap(ack_pending_);
  }
  // Re-check epochs at flush time: a reconnect between append and flush
  // makes a tag stale (the broker already nack-requeued its delivery).
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  std::vector<WireAck> live;
  live.reserve(batch.size());
  for (auto& ack : batch) {
    if ((ack.delivery_tag >> kEpochShift) != epoch) {
      client_telemetry().stale_acks.inc();
      continue;
    }
    ack.delivery_tag &= kTagMask;
    live.push_back(std::move(ack));
  }
  if (live.empty()) return;
  if (live.size() > 1) client_telemetry().ack_batches.inc();
  (void)send_now(encode_ack(0, live));
}

bool BusClient::nack(const std::string& queue, std::uint64_t delivery_tag,
                     bool requeue) {
  if ((delivery_tag >> kEpochShift) !=
      epoch_.load(std::memory_order_acquire)) {
    client_telemetry().stale_acks.inc();
    return false;
  }
  return send_now(encode_nack(0, queue, delivery_tag & kTagMask, requeue));
}

bus::QueueStats BusClient::queue_stats(const std::string& queue) const {
  auto* self = const_cast<BusClient*>(this);
  const auto reply = self->request([&](std::uint32_t channel) {
    return encode_queue_stats(channel, queue);
  });
  bus::QueueStats stats;
  if (reply.type != FrameType::kQueueStatsOk ||
      !parse_queue_stats_ok(reply, &stats)) {
    throw common::BusError("queue_stats: malformed reply");
  }
  return stats;
}

std::shared_ptr<BusClient::Buffer> BusClient::buffer_for(
    const std::string& queue) {
  const std::scoped_lock lock{state_mutex_};
  auto it = buffers_.find(queue);
  if (it != buffers_.end()) return it->second;
  auto buffer = std::make_shared<Buffer>(kPrefetch);
  buffers_.emplace(queue, buffer);
  return buffer;
}

}  // namespace stampede::net
