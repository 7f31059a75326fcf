#include "loader/nl_load.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::loader {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

telemetry::Gauge& events_per_second_gauge() {
  static telemetry::Gauge& gauge =
      telemetry::registry().gauge("stampede_loader_events_per_second");
  return gauge;
}

}  // namespace

NlLoadStats load_stream(std::istream& in, EventSink& sink) {
  const auto start = Clock::now();
  NlLoadStats stats;
  nl::StreamParser parser{in};
  while (auto record = parser.next()) {
    ++stats.messages;
    sink.process(*record);
  }
  sink.finish();
  stats.lines = parser.lines_read();
  stats.parse_errors = parser.errors().size();
  stats.wall_seconds = seconds_since(start);
  events_per_second_gauge().set(
      static_cast<std::int64_t>(stats.events_per_second()));
  return stats;
}

NlLoadStats load_file(const std::string& path, EventSink& sink) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("nl_load: cannot open " + path);
  }
  return load_stream(in, sink);
}

QueuePump::QueuePump(bus::IBus& bus, std::string queue, EventSink& sink)
    : broker_(&bus), queue_(std::move(queue)), sink_(&sink) {}

QueuePump::~QueuePump() { stop(); }

void QueuePump::start() {
  if (started_.exchange(true)) return;
  worker_ = std::jthread([this](std::stop_token stop) { pump(stop); });
}

void QueuePump::stop() {
  if (worker_.joinable()) {
    worker_.request_stop();
    worker_.join();
  }
}

bool QueuePump::wait_until_drained(int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    const auto qs = broker_->queue_stats(queue_);
    if (qs.depth == 0 && qs.unacked == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto qs = broker_->queue_stats(queue_);
  return qs.depth == 0 && qs.unacked == 0;
}

NlLoadStats QueuePump::stats() const {
  const std::scoped_lock lock{stats_mutex_};
  return stats_;
}

void QueuePump::pump(const std::stop_token& stop) {
  const auto start = Clock::now();
  const std::string tag = "nl_load-" + queue_;
  // Acks flow through the loader: each delivery's tag is released only
  // when the transaction holding its rows commits (or the event is
  // definitively rejected), so a crash never acks uncommitted work.
  sink_->set_ack_callback([this](std::uint64_t delivery_tag) {
    broker_->ack(queue_, delivery_tag);
  });
  while (true) {
    auto delivery = broker_->basic_get(queue_, tag, /*timeout_ms=*/20);
    if (!delivery) {
      if (stop.stop_requested()) break;  // Drained and asked to stop.
      // Idle: commit the partial batch so its acks release — otherwise
      // unacked messages linger until batch_size more events arrive.
      sink_->flush_hint();
      continue;
    }
    // The dequeue-side trace stamp; together with the bus-side stamps it
    // lets the loader measure true end-to-end latency per event.
    telemetry::TraceStamps trace{delivery->message().trace_published,
                                 delivery->message().trace_enqueued,
                                 telemetry::trace_now()};
    trace.context = delivery->message().trace_ctx;
    if (trace.context.valid()) {
      trace.published_wall = delivery->message().trace_published_wall;
      trace.enqueued_wall = delivery->message().trace_enqueued_wall;
      trace.spooled_wall = delivery->message().trace_spooled_wall;
      trace.dequeued_wall =
          telemetry::Tracer::instance().wall_at(trace.dequeued);
    }
    nl::ParseResult parsed = nl::parse_line(delivery->message().body);
    {
      const std::scoped_lock lock{stats_mutex_};
      ++stats_.lines;
      ++stats_.messages;
      if (std::holds_alternative<nl::ParseError>(parsed)) {
        ++stats_.parse_errors;
      }
      stats_.wall_seconds = seconds_since(start);
      events_per_second_gauge().set(
          static_cast<std::int64_t>(stats_.events_per_second()));
    }
    if (auto* record = std::get_if<nl::LogRecord>(&parsed)) {
      sink_->process(*record, &trace, delivery->redelivered,
                     delivery->delivery_tag);
    } else {
      // A message our parser rejects will never become parseable on
      // redelivery; ack it directly.
      broker_->ack(queue_, delivery->delivery_tag);
    }
  }
  // finish() flushes and releases every remaining ack via the callback.
  sink_->finish();
  const std::scoped_lock lock{stats_mutex_};
  stats_.wall_seconds = seconds_since(start);
}

}  // namespace stampede::loader
