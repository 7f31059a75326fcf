#pragma once
// The process-wide tracer (DESIGN.md §11): id generation, head-based
// sampling, wall-clock anchoring, and the SpanSink finished spans flow
// into.
//
// Sampling is decided once, at the trace root (BpPublisher, or the root
// SpanGuard of a local operation), by comparing a fresh random id
// against a threshold derived from the configured rate; the decision
// travels in TraceContext.flags so downstream stages never re-decide.
// Unsampled work costs one relaxed atomic RMW at the root and nothing
// downstream. Error spans are always recorded, even when their trace
// was not head-sampled — failed operations synthesize ids on the spot.
//
// The tracer is inert while telemetry is disabled (the runtime
// kill-switch): start_trace() returns an invalid context and guards
// never record.

#include <cstdint>
#include <string>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace stampede::telemetry {

class Tracer {
 public:
  /// The process singleton. First use captures the wall-clock anchor.
  static Tracer& instance();

  /// Fraction of new traces to sample, clamped to [0, 1]. Default 0.01
  /// (kDefaultSampleRate); 0 disables root span creation entirely.
  void set_sample_rate(double rate);
  [[nodiscard]] double sample_rate() const;

  /// A fresh nonzero 64-bit id (splitmix64 over a random-seeded
  /// counter; no locks).
  [[nodiscard]] std::uint64_t next_id();

  /// One head-sampling decision at the configured rate.
  [[nodiscard]] bool head_sample();

  /// Starts a new trace: fresh trace + span ids with the sampled flag
  /// set, or an invalid (all-zero) context when the head-sampling
  /// decision says no or telemetry is disabled.
  [[nodiscard]] TraceContext start_trace();

  /// A child position in `parent`'s trace (same trace id + flags, fresh
  /// span id). Invalid when the parent is invalid or unsampled.
  [[nodiscard]] TraceContext child_of(const TraceContext& parent);

  // -- Wall-clock anchoring --------------------------------------------
  // One (wall epoch, steady) pair captured at construction; spans
  // convert steady readings to epoch seconds through it so traces from
  // different processes share a time axis.

  /// Current anchored epoch seconds.
  [[nodiscard]] double wall_now() const;
  /// Anchored epoch seconds for a telemetry::now() steady reading.
  [[nodiscard]] double wall_at(double steady_seconds) const;

  [[nodiscard]] SpanSink& sink() noexcept { return sink_; }
  [[nodiscard]] const SpanSink& sink() const noexcept { return sink_; }

  /// Records a finished span into the sink.
  void record(Span span);

 private:
  Tracer();

  SpanSink sink_;
  std::atomic<std::uint64_t> id_state_;
  std::atomic<std::uint64_t> sample_threshold_;
  double wall_anchor_;    ///< Epoch seconds at anchor capture...
  double steady_anchor_;  ///< ...and the matching telemetry::now().
};

inline constexpr double kDefaultSampleRate = 0.01;

/// RAII span: captures the start on construction, records on
/// destruction (or finish()). Inactive guards — unsampled parent,
/// telemetry disabled — cost two clock reads and never record, unless
/// set_error() fires, in which case the span is recorded regardless
/// (errors are always sampled).
class SpanGuard {
 public:
  SpanGuard() = default;  ///< Inactive.

  /// A child span of `parent`; inactive when parent is unsampled.
  SpanGuard(std::string name, const TraceContext& parent);

  /// A root span: makes its own head-sampling decision.
  [[nodiscard]] static SpanGuard root(std::string name);

  ~SpanGuard() { finish(); }

  SpanGuard(SpanGuard&& other) noexcept { *this = std::move(other); }
  SpanGuard& operator=(SpanGuard&& other) noexcept {
    finish();
    span_ = std::move(other.span_);
    start_steady_ = other.start_steady_;
    active_ = other.active_;
    done_ = other.done_;
    other.done_ = true;
    return *this;
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches a key/value attribute (no-op when the span won't record).
  void attr(std::string key, std::string value);
  /// Marks the span failed; forces recording even when unsampled.
  void set_error();

  /// Records now instead of at destruction.
  void finish();

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] const TraceContext& context() const noexcept {
    return span_.context;
  }

 private:
  SpanGuard(std::string name, TraceContext context,
            std::uint64_t parent_span_id, bool active);

  Span span_;
  double start_steady_ = 0.0;
  bool active_ = false;
  bool done_ = true;
};

}  // namespace stampede::telemetry
