#pragma once
// In-process AMQP-style broker (the RabbitMQ substitute, DESIGN.md §2).
//
// Provides the AMQP 0-9-1 surface Stampede uses: exchange declaration
// (direct / fanout / topic), queue declaration (durable, auto-delete,
// bounded), bindings with wildcard keys, non-blocking publish, blocking
// consume with acknowledgments, and RAII push-mode subscriptions running
// on their own threads.
//
// Durable queues spool persistent messages to an append-only file
// (bus/spool.hpp format v2) so a new broker instance can recover them —
// the `durable=true auto_delete=false` flags from the paper's nl_load
// invocation. Acks are logged to the same file and the broker compacts
// it once the dead prefix passes QueueOptions::spool_compact_threshold,
// so recovery replays only unacked messages and the spool stays bounded
// under sustained traffic (at-least-once, DESIGN.md "Delivery
// guarantees"). Messages nack-requeued more than
// QueueOptions::max_redeliveries times are routed to the queue's
// declared dead-letter queue instead of hot-looping at the head.
//
// Locking discipline (lock order top to bottom; never reversed):
//   1. `mutex_` guards topology (exchanges_, queues_), stats_, and
//      closed_, and is the condition-variable mutex: `message_ready_`
//      is ONLY notified while `mutex_` is held (publish, nack-requeue,
//      close). A consumer that rechecks its queue under `mutex_` before
//      waiting therefore cannot miss a wakeup — either the publish's
//      enqueue happened before the recheck, or its notify happens after
//      the consumer is parked on the condition variable.
//   2. `QueueEntry::spool_mutex` guards one queue's spool file, open
//      stream, and sequence counter. publish holds it across
//      append+enqueue so a concurrent compaction cannot snapshot the
//      queue between the two steps and drop a spooled-but-not-enqueued
//      message. Never held together with `mutex_`.
//   3. `BrokerQueue`'s internal mutex is innermost: taken while holding
//      `mutex_` (basic_get recheck) or `spool_mutex` (publish,
//      compaction snapshot), and BrokerQueue never calls back into the
//      broker, so no cycle is possible.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bus/ibus.hpp"
#include "bus/message.hpp"
#include "bus/queue.hpp"
#include "bus/topic_matcher.hpp"

namespace stampede::bus {

struct BrokerStats {
  std::uint64_t published = 0;
  std::uint64_t routed = 0;    ///< Queue placements (one publish may fan out).
  std::uint64_t unroutable = 0;
};

class Broker;

/// RAII push-mode consumer. Runs the callback on an internal thread for
/// every delivery; when the callback returns true the message is acked,
/// otherwise nacked-and-requeued with exponential backoff (bounded by
/// the queue's max_redeliveries / dead-letter policy). Destroying the
/// subscription stops the thread and requeues anything unacked.
class Subscription {
 public:
  using Handler = std::function<bool(const Delivery&)>;

  Subscription();
  Subscription(Subscription&&) noexcept;
  Subscription& operator=(Subscription&&) noexcept;
  ~Subscription();

  /// Stops consuming (idempotent); joins the delivery thread.
  void cancel();

  [[nodiscard]] bool active() const noexcept { return impl_ != nullptr; }

 private:
  friend class Broker;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class Broker : public IBus {
 public:
  /// `spool_dir`: where durable queues keep their spool files; empty
  /// disables persistence entirely.
  explicit Broker(std::string spool_dir = {});
  ~Broker() override;

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // -- topology -------------------------------------------------------------

  /// Declares (or re-declares, idempotently) an exchange. Redeclaring
  /// with a different type throws common::BusError.
  void declare_exchange(const std::string& name, ExchangeType type) override;

  /// Declares a queue; also binds it to the default ("") direct exchange
  /// under its own name, per AMQP. Recovers spooled messages for durable
  /// queues (replaying only those without a logged ack) and compacts the
  /// spool in passing. Redeclaring with different options throws
  /// common::BusError.
  void declare_queue(const std::string& name,
                     QueueOptions options = {}) override;

  /// Removes a queue, its bindings, and its spool file. Unknown names
  /// are ignored.
  void delete_queue(const std::string& name);

  /// Binds `queue` to `exchange` with a (possibly wildcarded) key.
  /// Throws common::BusError if either does not exist.
  void bind(const std::string& queue, const std::string& exchange,
            const std::string& binding_key) override;

  [[nodiscard]] bool has_queue(const std::string& name) const;

  // -- publish --------------------------------------------------------------

  /// Routes a message through `exchange`. Returns the number of queues
  /// that accepted it (0 = unroutable). Never blocks the caller.
  std::size_t publish(const std::string& exchange, Message message) override;

  // -- consume --------------------------------------------------------------

  /// Pull-mode get. Blocks up to `timeout_ms` (0 = poll) for a ready
  /// message. nullopt on timeout or unknown queue after shutdown.
  [[nodiscard]] std::optional<Delivery> basic_get(
      const std::string& queue, const std::string& consumer_tag,
      int timeout_ms = 0) override;

  bool ack(const std::string& queue, std::uint64_t delivery_tag) override;
  bool nack(const std::string& queue, std::uint64_t delivery_tag,
            bool requeue) override;

  /// Push-mode consume on a dedicated thread.
  [[nodiscard]] Subscription subscribe(const std::string& queue,
                                       Subscription::Handler handler,
                                       const std::string& consumer_tag = "");

  // -- introspection ----------------------------------------------------------

  [[nodiscard]] QueueStats queue_stats(
      const std::string& queue) const override;
  [[nodiscard]] BrokerStats stats() const;

  /// Wakes all blocked consumers and rejects further publishes; used for
  /// orderly shutdown before destruction.
  void close();

 private:
  struct Exchange {
    ExchangeType type = ExchangeType::kDirect;
    struct Binding {
      std::string queue;
      TopicPattern pattern;
    };
    std::vector<Binding> bindings;
  };

  struct QueueEntry {
    explicit QueueEntry(std::string name, QueueOptions options)
        : queue(std::move(name), options) {}
    BrokerQueue queue;
    std::string spool_path;  ///< Empty when not durable / no spool dir.

    // Spool state, guarded by spool_mutex (lock order: see file header).
    std::mutex spool_mutex;
    std::ofstream spool_out;        ///< Kept open in append mode.
    std::uint64_t next_seq = 1;     ///< Next spool sequence to assign.
    std::uint64_t dead_records = 0;  ///< Ack records since last compaction.
  };

  std::shared_ptr<QueueEntry> find_queue(const std::string& name) const;
  /// Spools (if persistent + durable) then enqueues; handles the spool
  /// ack for a message dropped by drop-head overflow.
  void spool_publish(QueueEntry& entry, Message message);
  /// Logs an ack record for `spool_seq` (no-op for 0 / non-durable) and
  /// compacts once the dead prefix passes the queue's threshold.
  void spool_ack(QueueEntry& entry, std::uint64_t spool_seq);
  void spool_ack_locked(QueueEntry& entry, std::uint64_t spool_seq);
  void compact_locked(QueueEntry& entry);
  void spool_recover(QueueEntry& entry);
  /// Routes a message that exhausted max_redeliveries to its queue's
  /// declared dead-letter queue (counted drop when none exists).
  void dead_letter(QueueEntry& source, Message message);

  mutable std::mutex mutex_;
  std::condition_variable message_ready_;
  std::map<std::string, Exchange> exchanges_;
  std::map<std::string, std::shared_ptr<QueueEntry>> queues_;
  std::string spool_dir_;
  BrokerStats stats_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> consumer_seq_{0};
};

}  // namespace stampede::bus
