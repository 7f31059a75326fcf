#include "loader/lane.hpp"

#include <algorithm>

namespace stampede::loader {

Lane::Lane(db::Database& database, const LoaderOptions& options,
           std::size_t capacity, std::function<void()> after_step)
    : loader_(database, options),
      queue_(capacity),
      after_step_(std::move(after_step)),
      poll_(std::clamp<std::size_t>(options.flush_deadline_ms / 2, 1, 100)) {
  if (options.flush_deadline_ms == 0) poll_ = std::chrono::milliseconds(100);
}

Lane::~Lane() { finish(); }

void Lane::start() {
  worker_ = std::thread([this] { run(); });
}

bool Lane::push(nl::LogRecord record, const telemetry::TraceStamps* trace,
                bool redelivered, std::uint64_t ack_tag) {
  Item item;
  item.record = std::move(record);
  if (trace != nullptr) {
    item.trace = std::make_unique<const telemetry::TraceStamps>(*trace);
  }
  item.redelivered = redelivered;
  item.ack_tag = ack_tag;
  return queue_.push(std::move(item));
}

void Lane::flush_hint() {
  Item marker;
  marker.task = std::make_unique<Task>([this](StampedeLoader& loader) {
    // Behind queued events the deadline bounds the wait instead.
    if (queue_.size() == 0) loader.flush_hint();
  });
  queue_.try_push(std::move(marker));
}

bool Lane::post(Task task) {
  Item item;
  item.task = std::make_unique<Task>(std::move(task));
  return queue_.push(std::move(item));
}

void Lane::finish() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

void Lane::abandon() {
  abandoned_.store(true);
  finish();
  loader_.abandon();
}

void Lane::run() {
  for (;;) {
    auto item = queue_.pop_for(poll_);
    if (abandoned_.load()) return;  // Crash simulation: no final flush.
    if (item && item->task) {
      (*item->task)(loader_);
    } else if (item) {
      loader_.process(item->record, item->trace.get(), item->redelivered,
                      item->ack_tag);
    } else if (queue_.closed() && queue_.size() == 0) {
      break;  // The only consumer saw closed+empty: final.
    } else {
      // A quiet queue: rows past their age deadline commit now.
      loader_.maybe_deadline_flush();
    }
    if (after_step_) after_step_();
  }
  loader_.finish();  // Final flush + deferred replay.
  if (after_step_) after_step_();
}

}  // namespace stampede::loader
