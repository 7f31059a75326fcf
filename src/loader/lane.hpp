#pragma once
// loader::Lane — one StampedeLoader fed from its own hand-off queue by
// its own worker thread: the single consume loop behind every
// ShardedLoader lane and every shard a cluster::ShardHost serves
// (DESIGN.md §2 "Parallel loader lanes", §14 "Ingest").
//
// The worker owns the loader, so nothing it holds needs a lock. It pops
// at half the flush deadline (clamped to [1, 100] ms) and checks the
// deadline on a timeout (StampedeLoader::process checks it per event),
// runs tasks — flush hints among them — in queue order, and calls the
// after-step hook after every step and after the final flush.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/concurrent_queue.hpp"
#include "db/database.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/record.hpp"
#include "telemetry/trace.hpp"

namespace stampede::loader {

class Lane {
 public:
  /// Runs on the lane thread with the lane's loader.
  using Task = std::function<void(StampedeLoader&)>;

  /// `capacity` bounds the queue (0 = unbounded); `after_step` may be
  /// empty. The worker starts with start().
  Lane(db::Database& database, const LoaderOptions& options,
       std::size_t capacity, std::function<void()> after_step = {});
  ~Lane();  ///< finish()

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  void start();

  /// Queues one event, blocking while a bounded queue is full. False
  /// once the lane is finished.
  bool push(nl::LogRecord record, const telemetry::TraceStamps* trace,
            bool redelivered, std::uint64_t ack_tag);
  /// Flushes if the queue is empty when the hint is reached. Never
  /// blocks: a full queue does not need the hint.
  void flush_hint();
  /// Queues `task` behind everything pushed so far; blocks like push().
  bool post(Task task);

  /// Terminal: the worker drains the queue, runs the final
  /// StampedeLoader::finish() and the hook, then joins. Idempotent.
  void finish();
  /// Crash simulation: the worker stops after its current step without
  /// a final flush, then StampedeLoader::abandon() drops the
  /// uncommitted batch (its acks never fire).
  void abandon();

  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  /// Touch from other threads only before start() or after finish();
  /// in between, post() a Task.
  [[nodiscard]] StampedeLoader& loader() noexcept { return loader_; }
  [[nodiscard]] const StampedeLoader& loader() const noexcept {
    return loader_;
  }

 private:
  /// Trace stamps and tasks are rare, so they sit out of line: an
  /// untraced event carries two null pointers, not their bytes.
  struct Item {
    nl::LogRecord record;
    std::unique_ptr<const telemetry::TraceStamps> trace;  ///< Traced only.
    std::unique_ptr<Task> task;  ///< Set instead of an event.
    std::uint64_t ack_tag = 0;
    bool redelivered = false;
  };

  void run();

  StampedeLoader loader_;
  common::ConcurrentQueue<Item> queue_;
  std::function<void()> after_step_;
  std::chrono::milliseconds poll_;
  std::atomic<bool> abandoned_{false};
  std::thread worker_;
};

}  // namespace stampede::loader
