#pragma once
// Bridges NetLogger records onto the message bus.
//
// This is the transport half of the "Rabbit Appender" from paper §V-C:
// each LogRecord is formatted as a BP line and published to an exchange
// with the event name as the routing key, so consumers can topic-filter
// ("stampede.job.#"). Engines own one of these per run.

#include <string>

#include "bus/ibus.hpp"
#include "netlogger/formatter.hpp"
#include "netlogger/record.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::bus {

/// Routing-key prefix of span events (DESIGN.md §11). Messages under it
/// are never traced — the self-amplification guard that keeps span
/// events fed in from outside from spawning spans about spans.
inline constexpr std::string_view kTraceEventPrefix = "stampede.trace.";

[[nodiscard]] inline bool is_trace_event(std::string_view routing_key) {
  return routing_key.substr(0, kTraceEventPrefix.size()) == kTraceEventPrefix;
}

class BpPublisher {
 public:
  /// Publishes to `exchange` on `bus` (a topic exchange is declared if
  /// absent) — any IBus transport: the in-process Broker or a
  /// net::BusClient. `persistent` marks messages for durable-queue
  /// spooling.
  BpPublisher(IBus& bus, std::string exchange, bool persistent = false)
      : broker_(&bus),
        exchange_(std::move(exchange)),
        persistent_(persistent) {
    broker_->declare_exchange(exchange_, ExchangeType::kTopic);
  }

  /// Formats and publishes one record; returns queues reached. The
  /// publish-side trace stamp starts the end-to-end latency clock, and —
  /// when the head-sampling decision says yes — a new trace roots here:
  /// the context rides on the message (and as a `traceparent` header for
  /// peers without the TRACE wire field), and a local "bus.publish" span
  /// measures the publish call itself.
  std::size_t publish(const nl::LogRecord& record) {
    Message message;
    message.routing_key = record.event();
    message.body = nl::format_record(record);
    message.published_at = record.ts();
    message.persistent = persistent_;
    message.trace_published = telemetry::trace_now();
    ++published_;
    if (!is_trace_event(message.routing_key)) {
      auto& tracer = telemetry::Tracer::instance();
      message.trace_ctx = tracer.start_trace();
      if (message.trace_ctx.valid()) {
        message.trace_published_wall =
            tracer.wall_at(message.trace_published);
        message.headers["traceparent"] = message.trace_ctx.to_traceparent();
        telemetry::SpanGuard span{"bus.publish", message.trace_ctx};
        span.attr("routing_key", message.routing_key);
        return broker_->publish(exchange_, std::move(message));
      }
    }
    return broker_->publish(exchange_, std::move(message));
  }

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] const std::string& exchange() const noexcept {
    return exchange_;
  }

 private:
  IBus* broker_;
  std::string exchange_;
  bool persistent_;
  std::uint64_t published_ = 0;
};

}  // namespace stampede::bus
