#include "bus/broker.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "bus/spool.hpp"
#include "common/errors.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::bus {

using common::BusError;

namespace {

/// Broker-wide instruments, resolved once per process (the broker is a
/// hot path: one publish per monitoring event in the whole system).
struct BusTelemetry {
  telemetry::Counter& published =
      telemetry::registry().counter("stampede_bus_published_total");
  telemetry::Counter& routed =
      telemetry::registry().counter("stampede_bus_routed_total");
  telemetry::Counter& unroutable =
      telemetry::registry().counter("stampede_bus_unroutable_total");
  telemetry::Counter& spool_compactions =
      telemetry::registry().counter("stampede_bus_spool_compactions_total");
  telemetry::Counter& dead_lettered =
      telemetry::registry().counter("stampede_bus_dead_lettered_total");
  telemetry::Counter& spool_truncated = telemetry::registry().counter(
      "stampede_bus_spool_truncated_records_total");
  telemetry::Histogram& routing_latency = telemetry::registry().histogram(
      "stampede_bus_routing_latency_seconds", {1e-7, 2.0, 32});
};

BusTelemetry& bus_telemetry() {
  static BusTelemetry instance;
  return instance;
}

// Subscribe-pump retry backoff: doubles per redelivery from the base,
// capped, so a poison message retries at a falling rate instead of the
// raw 20 Hz basic_get loop until it dead-letters.
constexpr std::chrono::milliseconds kRetryBackoffBase{10};
constexpr std::chrono::milliseconds kRetryBackoffMax{500};

/// The spool record for a live message, trace fields included so
/// compaction/recovery rewrites keep redeliveries on their trace.
spool::MessageRecord spool_record(const Message& msg) {
  spool::MessageRecord rec;
  rec.seq = msg.spool_seq;
  rec.routing_key = msg.routing_key;
  rec.body = msg.body;
  if (msg.trace_ctx.valid()) {
    rec.traceparent = msg.trace_ctx.to_traceparent();
    rec.published_wall = msg.trace_published_wall;
  }
  return rec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Subscription

struct Subscription::Impl {
  std::jthread worker;
};

Subscription::Subscription() = default;
Subscription::Subscription(Subscription&&) noexcept = default;

Subscription& Subscription::operator=(Subscription&& other) noexcept {
  if (this != &other) {
    cancel();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

Subscription::~Subscription() { cancel(); }

void Subscription::cancel() {
  if (impl_ && impl_->worker.joinable()) {
    impl_->worker.request_stop();
    impl_->worker.join();
  }
  impl_.reset();
}

// ---------------------------------------------------------------------------
// Broker

Broker::Broker(std::string spool_dir) : spool_dir_(std::move(spool_dir)) {
  // The AMQP default exchange: direct, routes by queue name.
  exchanges_.emplace("", Exchange{ExchangeType::kDirect, {}});
  if (!spool_dir_.empty()) {
    std::filesystem::create_directories(spool_dir_);
  }
}

Broker::~Broker() { close(); }

void Broker::close() {
  // closed_ is set and the wakeup broadcast under mutex_ so a consumer
  // that saw closed_ == false under the lock is already parked on the
  // condition variable when the notify lands (see locking discipline in
  // broker.hpp).
  const std::scoped_lock lock{mutex_};
  closed_.store(true);
  message_ready_.notify_all();
}

void Broker::declare_exchange(const std::string& name, ExchangeType type) {
  const std::scoped_lock lock{mutex_};
  const auto it = exchanges_.find(name);
  if (it != exchanges_.end()) {
    if (it->second.type != type) {
      throw BusError("exchange '" + name + "' redeclared with another type");
    }
    return;
  }
  exchanges_.emplace(name, Exchange{type, {}});
}

void Broker::declare_queue(const std::string& name, QueueOptions options) {
  std::shared_ptr<QueueEntry> entry;
  {
    const std::scoped_lock lock{mutex_};
    const auto it = queues_.find(name);
    if (it != queues_.end()) {
      const QueueOptions& existing = it->second->queue.options();
      if (existing.durable != options.durable ||
          existing.auto_delete != options.auto_delete ||
          existing.max_length != options.max_length ||
          existing.max_redeliveries != options.max_redeliveries ||
          existing.dead_letter_queue != options.dead_letter_queue ||
          existing.spool_compact_threshold != options.spool_compact_threshold) {
        throw BusError("queue '" + name + "' redeclared with other options");
      }
      return;
    }
    entry = std::make_shared<QueueEntry>(name, options);
    if (options.durable && !spool_dir_.empty()) {
      entry->spool_path = spool_dir_ + "/" + name + ".spool";
    }
    queues_.emplace(name, entry);
    // Default-exchange binding under the queue's own name.
    exchanges_[""].bindings.push_back({name, TopicPattern{name}});
  }
  if (!entry->spool_path.empty()) {
    spool_recover(*entry);
    if (!entry->queue.empty()) {
      const std::scoped_lock lock{mutex_};
      message_ready_.notify_all();
    }
  }
}

void Broker::delete_queue(const std::string& name) {
  std::shared_ptr<QueueEntry> entry;
  {
    const std::scoped_lock lock{mutex_};
    const auto it = queues_.find(name);
    if (it != queues_.end()) {
      entry = it->second;
      queues_.erase(it);
    }
    for (auto& [ename, exchange] : exchanges_) {
      auto& b = exchange.bindings;
      std::erase_if(b,
                    [&](const auto& binding) { return binding.queue == name; });
    }
  }
  if (entry && !entry->spool_path.empty()) {
    const std::scoped_lock slock{entry->spool_mutex};
    entry->spool_out.close();
    std::error_code ec;
    std::filesystem::remove(entry->spool_path, ec);
  }
}

void Broker::bind(const std::string& queue, const std::string& exchange,
                  const std::string& binding_key) {
  const std::scoped_lock lock{mutex_};
  if (queues_.find(queue) == queues_.end()) {
    throw BusError("bind: unknown queue '" + queue + "'");
  }
  const auto it = exchanges_.find(exchange);
  if (it == exchanges_.end()) {
    throw BusError("bind: unknown exchange '" + exchange + "'");
  }
  // Identical bindings are idempotent (AMQP queue.bind semantics) —
  // producer and consumer processes can both assert the topology
  // without doubling every delivery.
  for (const auto& binding : it->second.bindings) {
    if (binding.queue == queue && binding.pattern.pattern() == binding_key) {
      return;
    }
  }
  it->second.bindings.push_back({queue, TopicPattern{binding_key}});
}

bool Broker::has_queue(const std::string& name) const {
  const std::scoped_lock lock{mutex_};
  return queues_.find(name) != queues_.end();
}

std::size_t Broker::publish(const std::string& exchange, Message message) {
  if (closed_.load()) return 0;
  // A message from a peer without the TRACE wire field still carries its
  // context as a `traceparent` header — restore it so spool records and
  // downstream spans keep the trace.
  if (!message.trace_ctx.valid() && !message.headers.empty()) {
    const auto tp = message.headers.find("traceparent");
    if (tp != message.headers.end()) {
      (void)telemetry::TraceContext::from_traceparent(tp->second,
                                                      &message.trace_ctx);
    }
  }
  auto& tele = bus_telemetry();
  const double route_start = telemetry::trace_now();
  std::vector<std::shared_ptr<QueueEntry>> targets;
  {
    const std::scoped_lock lock{mutex_};
    const auto it = exchanges_.find(exchange);
    if (it == exchanges_.end()) {
      throw BusError("publish: unknown exchange '" + exchange + "'");
    }
    ++stats_.published;
    tele.published.inc();
    for (const auto& binding : it->second.bindings) {
      const bool hit = it->second.type == ExchangeType::kFanout ||
                       (it->second.type == ExchangeType::kDirect
                            ? binding.pattern.pattern() == message.routing_key
                            : binding.pattern.matches(message.routing_key));
      if (!hit) continue;
      const auto qit = queues_.find(binding.queue);
      if (qit != queues_.end()) targets.push_back(qit->second);
    }
    if (targets.empty()) {
      ++stats_.unroutable;
      tele.unroutable.inc();
    } else {
      stats_.routed += targets.size();
      tele.routed.inc(targets.size());
    }
  }
  // Enqueue outside the broker lock: BrokerQueue has its own mutex and
  // spooling does file I/O (CP.43 — keep critical sections small).
  message.trace_enqueued = route_start > 0.0 ? telemetry::now() : 0.0;
  if (message.trace_ctx.valid() && message.trace_enqueued > 0.0) {
    message.trace_enqueued_wall =
        telemetry::Tracer::instance().wall_at(message.trace_enqueued);
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const bool last = i + 1 == targets.size();
    spool_publish(*targets[i], last ? std::move(message) : message);
  }
  if (route_start > 0.0) {
    tele.routing_latency.observe(telemetry::now() - route_start);
  }
  if (!targets.empty()) {
    const std::scoped_lock lock{mutex_};
    message_ready_.notify_all();
  }
  return targets.size();
}

std::shared_ptr<Broker::QueueEntry> Broker::find_queue(
    const std::string& name) const {
  const std::scoped_lock lock{mutex_};
  const auto it = queues_.find(name);
  return it == queues_.end() ? nullptr : it->second;
}

std::optional<Delivery> Broker::basic_get(const std::string& queue,
                                          const std::string& consumer_tag,
                                          int timeout_ms) {
  const auto entry = find_queue(queue);
  if (!entry) return std::nullopt;
  // Optimistic lock-free try first: the common case under load is a
  // non-empty queue, which never needs mutex_ at all.
  if (auto delivery = entry->queue.deliver(consumer_tag, "")) return delivery;
  if (timeout_ms <= 0) return std::nullopt;

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::unique_lock lock{mutex_};
  while (true) {
    // Recheck under mutex_ before every wait (including the first): a
    // publish that landed between the optimistic miss above and this
    // lock either enqueued before this deliver() or will notify after
    // we park — notify_all is only called with mutex_ held.
    if (auto delivery = entry->queue.deliver(consumer_tag, "")) {
      return delivery;
    }
    if (closed_.load()) return std::nullopt;
    if (message_ready_.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
  lock.unlock();
  return entry->queue.deliver(consumer_tag, "");
}

bool Broker::ack(const std::string& queue, std::uint64_t delivery_tag) {
  const auto entry = find_queue(queue);
  if (!entry) return false;
  const auto spool_seq = entry->queue.ack(delivery_tag);
  if (!spool_seq) return false;
  if (*spool_seq != 0) spool_ack(*entry, *spool_seq);
  return true;
}

bool Broker::nack(const std::string& queue, std::uint64_t delivery_tag,
                  bool requeue) {
  const auto entry = find_queue(queue);
  if (!entry) return false;
  NackResult result = entry->queue.nack(delivery_tag, requeue);
  if (!result.ok) return false;
  // A message that permanently left this queue (discarded or about to
  // be dead-lettered) is acked in the spool so it cannot resurrect on
  // recovery.
  if (result.removed_spool_seq != 0) {
    spool_ack(*entry, result.removed_spool_seq);
  }
  if (result.dead_letter) {
    dead_letter(*entry, std::move(*result.dead_letter));
  }
  if (result.requeued) {
    const std::scoped_lock lock{mutex_};
    message_ready_.notify_all();
  }
  return true;
}

void Broker::dead_letter(QueueEntry& source, Message message) {
  bus_telemetry().dead_lettered.inc();
  message.headers["x-death-queue"] = source.queue.name();
  message.headers["x-death-reason"] = "max_redeliveries";
  message.headers["x-death-count"] = std::to_string(message.redeliveries + 1);
  // The message starts a fresh life on the dead-letter queue.
  message.spool_seq = 0;
  message.redeliveries = 0;
  message.replayed = false;
  const std::string& dlq = source.queue.options().dead_letter_queue;
  const auto target = dlq.empty() ? nullptr : find_queue(dlq);
  if (!target) return;  // No DLQ declared: counted drop, not a crash.
  spool_publish(*target, std::move(message));
  const std::scoped_lock lock{mutex_};
  message_ready_.notify_all();
}

Subscription Broker::subscribe(const std::string& queue,
                               Subscription::Handler handler,
                               const std::string& consumer_tag) {
  const std::string tag =
      consumer_tag.empty()
          ? "ctag-" + std::to_string(consumer_seq_.fetch_add(1) + 1)
          : consumer_tag;
  Subscription subscription;
  subscription.impl_ = std::make_unique<Subscription::Impl>();
  subscription.impl_->worker = std::jthread(
      [this, queue, tag, handler = std::move(handler)](std::stop_token stop) {
        using std::chrono::milliseconds;
        using std::chrono::steady_clock;
        const auto stop_aware_sleep = [&stop](milliseconds total) {
          const auto deadline = steady_clock::now() + total;
          while (!stop.stop_requested() &&
                 steady_clock::now() < deadline) {
            std::this_thread::sleep_for(milliseconds{2});
          }
        };
        while (!stop.stop_requested()) {
          auto delivery = basic_get(queue, tag, /*timeout_ms=*/50);
          if (!delivery) continue;
          bool ok = false;
          try {
            ok = handler(*delivery);
          } catch (...) {
            ok = false;  // A throwing handler must not kill the pump.
          }
          if (ok) {
            ack(queue, delivery->delivery_tag);
          } else {
            const std::uint32_t attempt = delivery->message().redeliveries;
            nack(queue, delivery->delivery_tag, /*requeue=*/true);
            // The nack puts the message back at the head, so without a
            // pause this loop would retry a poison message at full
            // basic_get speed until it dead-letters.
            const auto factor = std::uint64_t{1} << std::min(attempt, 16u);
            stop_aware_sleep(std::min<milliseconds>(
                kRetryBackoffMax, kRetryBackoffBase * factor));
          }
        }
        const auto entry = find_queue(queue);
        if (entry) entry->queue.requeue_consumer(tag);
      });
  return subscription;
}

QueueStats Broker::queue_stats(const std::string& queue) const {
  const auto entry = find_queue(queue);
  if (!entry) throw BusError("queue_stats: unknown queue '" + queue + "'");
  return entry->queue.stats();
}

BrokerStats Broker::stats() const {
  const std::scoped_lock lock{mutex_};
  return stats_;
}

// ---------------------------------------------------------------------------
// Spool (format: bus/spool.hpp)

void Broker::spool_publish(QueueEntry& entry, Message message) {
  if (!message.persistent || entry.spool_path.empty()) {
    const auto result = entry.queue.enqueue(std::move(message));
    if (result.dropped_spool_seq != 0) {
      spool_ack(entry, result.dropped_spool_seq);
    }
    return;
  }
  // spool_mutex spans append+enqueue so a concurrent compaction cannot
  // snapshot the queue in between and rewrite the file without this
  // message (see locking discipline in broker.hpp).
  const std::scoped_lock slock{entry.spool_mutex};
  message.spool_seq = entry.next_seq++;
  if (entry.spool_out) {
    const std::string traceparent = message.trace_ctx.valid()
                                        ? message.trace_ctx.to_traceparent()
                                        : std::string{};
    entry.spool_out << spool::encode_message(
                           message.spool_seq, message.routing_key,
                           message.body, traceparent,
                           message.trace_published_wall)
                    << '\n';
    entry.spool_out.flush();
    if (message.trace_ctx.valid()) {
      message.trace_spooled_wall = telemetry::Tracer::instance().wall_now();
    }
  }
  const auto result = entry.queue.enqueue(std::move(message));
  if (result.dropped_spool_seq != 0) {
    spool_ack_locked(entry, result.dropped_spool_seq);
  }
}

void Broker::spool_ack(QueueEntry& entry, std::uint64_t spool_seq) {
  if (entry.spool_path.empty()) return;
  const std::scoped_lock slock{entry.spool_mutex};
  spool_ack_locked(entry, spool_seq);
}

void Broker::spool_ack_locked(QueueEntry& entry, std::uint64_t spool_seq) {
  if (spool_seq == 0 || !entry.spool_out) return;
  entry.spool_out << spool::encode_ack(spool_seq) << '\n';
  entry.spool_out.flush();
  ++entry.dead_records;
  // Each ack kills one message record, so the dead prefix is roughly
  // 2 * dead_records lines; the threshold bounds the spool under
  // sustained publish/ack traffic.
  if (entry.dead_records >= entry.queue.options().spool_compact_threshold) {
    compact_locked(entry);
  }
}

void Broker::compact_locked(QueueEntry& entry) {
  const std::vector<Message> live = entry.queue.spooled_messages();
  std::vector<spool::MessageRecord> records;
  records.reserve(live.size());
  for (const auto& msg : live) {
    records.push_back(spool_record(msg));
  }
  entry.spool_out.close();
  spool::rewrite_file(entry.spool_path, records);
  entry.spool_out.open(entry.spool_path, std::ios::app);
  entry.dead_records = 0;
  bus_telemetry().spool_compactions.inc();
}

void Broker::spool_recover(QueueEntry& entry) {
  const std::scoped_lock slock{entry.spool_mutex};
  spool::RecoverResult recovered = spool::recover_file(entry.spool_path);
  entry.next_seq = recovered.next_seq;
  if (recovered.truncated > 0) {
    bus_telemetry().spool_truncated.inc(recovered.truncated);
  }
  // Replay only the unacked suffix. Replayed messages may have been
  // delivered (even fully processed) before the crash, so they carry
  // the flag that makes their next delivery `redelivered` — consumers
  // dedup from there (at-least-once).
  for (auto& rec : recovered.live) {
    Message message;
    message.routing_key = std::move(rec.routing_key);
    message.body = std::move(rec.body);
    message.persistent = true;
    message.spool_seq = rec.seq;
    message.replayed = true;
    // A traced message keeps its trace across the crash: redeliveries
    // after restart belong to the same causal tree (DESIGN.md §11).
    if (!rec.traceparent.empty() &&
        telemetry::TraceContext::from_traceparent(rec.traceparent,
                                                  &message.trace_ctx)) {
      message.trace_published_wall = rec.published_wall;
      message.headers["traceparent"] = std::move(rec.traceparent);
    }
    entry.queue.enqueue(std::move(message));
  }
  // Recovery always rewrites the file down to the live set — the one
  // point where compaction is free — so an ack-everything-then-restart
  // cycle leaves a near-empty spool no matter the threshold. Drop-head
  // overflow during the re-enqueue above is reflected by snapshotting
  // the queue, not the recovered list.
  const std::vector<Message> live = entry.queue.spooled_messages();
  std::vector<spool::MessageRecord> records;
  records.reserve(live.size());
  for (const auto& msg : live) {
    records.push_back(spool_record(msg));
  }
  spool::rewrite_file(entry.spool_path, records);
  if (recovered.acks > 0 || records.size() != recovered.messages) {
    bus_telemetry().spool_compactions.inc();
  }
  entry.spool_out.open(entry.spool_path, std::ios::app);
  entry.dead_records = 0;
}

}  // namespace stampede::bus
