#include "telemetry/tracer.hpp"

#include <chrono>
#include <random>

namespace stampede::telemetry {

namespace {

/// Tracer instruments, resolved once (same pattern as the bus/net
/// telemetry structs).
struct TraceTelemetry {
  Counter& spans = registry().counter("stampede_trace_spans_total");
  Counter& sampled = registry().counter("stampede_trace_sampled_total");
  Counter& unsampled = registry().counter("stampede_trace_unsampled_total");
  Gauge& sample_permille =
      registry().gauge("stampede_trace_sample_rate_permille");
};

TraceTelemetry& trace_telemetry() {
  static TraceTelemetry instance;
  return instance;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t random_seed() {
  std::random_device rd;
  const std::uint64_t hi = static_cast<std::uint64_t>(rd()) << 32;
  const std::uint64_t steady = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return hi ^ rd() ^ splitmix64(steady);
}

std::uint64_t rate_to_threshold(double rate) {
  if (rate <= 0.0) return 0;
  if (rate >= 1.0) return UINT64_MAX;
  return static_cast<std::uint64_t>(rate * 18446744073709551616.0 /* 2^64 */);
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer()
    : id_state_(random_seed()),
      sample_threshold_(rate_to_threshold(kDefaultSampleRate)) {
  wall_anchor_ = std::chrono::duration<double>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
  steady_anchor_ = now();
  trace_telemetry().sample_permille.set(
      static_cast<std::int64_t>(kDefaultSampleRate * 1000.0));
}

void Tracer::set_sample_rate(double rate) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  sample_threshold_.store(rate_to_threshold(rate), std::memory_order_relaxed);
  trace_telemetry().sample_permille.set(
      static_cast<std::int64_t>(rate * 1000.0));
}

double Tracer::sample_rate() const {
  const std::uint64_t threshold =
      sample_threshold_.load(std::memory_order_relaxed);
  if (threshold == 0) return 0.0;
  if (threshold == UINT64_MAX) return 1.0;
  return static_cast<double>(threshold) / 18446744073709551616.0;
}

std::uint64_t Tracer::next_id() {
  // fetch_add with an odd constant walks the full 2^64 cycle; splitmix64
  // whitens it into well-distributed nonzero ids.
  const std::uint64_t raw = id_state_.fetch_add(0x9E3779B97F4A7C15ULL,
                                                std::memory_order_relaxed);
  const std::uint64_t id = splitmix64(raw);
  return id != 0 ? id : 1;
}

bool Tracer::head_sample() {
  const std::uint64_t threshold =
      sample_threshold_.load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  if (threshold == UINT64_MAX) {
    trace_telemetry().sampled.inc();
    return true;
  }
  if (next_id() < threshold) {
    trace_telemetry().sampled.inc();
    return true;
  }
  trace_telemetry().unsampled.inc();
  return false;
}

TraceContext Tracer::start_trace() {
  if (!enabled() || !head_sample()) return {};
  TraceContext context;
  context.trace_hi = next_id();
  context.trace_lo = next_id();
  context.span_id = next_id();
  context.flags = kTraceFlagSampled;
  return context;
}

TraceContext Tracer::child_of(const TraceContext& parent) {
  if (!parent.valid() || !parent.sampled()) return {};
  TraceContext context = parent;
  context.span_id = next_id();
  return context;
}

double Tracer::wall_now() const { return wall_at(now()); }

double Tracer::wall_at(double steady_seconds) const {
  return wall_anchor_ + (steady_seconds - steady_anchor_);
}

void Tracer::record(Span span) {
  trace_telemetry().spans.inc();
  sink_.record(std::move(span));
}

// ---------------------------------------------------------------------------
// SpanGuard

SpanGuard::SpanGuard(std::string name, const TraceContext& parent)
    : SpanGuard(std::move(name), Tracer::instance().child_of(parent),
                parent.span_id, parent.valid() && parent.sampled()) {}

SpanGuard SpanGuard::root(std::string name) {
  TraceContext context = Tracer::instance().start_trace();
  return SpanGuard{std::move(name), context, 0, context.valid()};
}

SpanGuard::SpanGuard(std::string name, TraceContext context,
                     std::uint64_t parent_span_id, bool active)
    : active_(active && enabled()), done_(false) {
  span_.name = std::move(name);
  span_.context = context;
  span_.parent_span_id = parent_span_id;
  start_steady_ = now();
  span_.start_wall = Tracer::instance().wall_at(start_steady_);
}

void SpanGuard::attr(std::string key, std::string value) {
  if (done_ || (!active_ && !span_.error)) return;
  span_.attributes.emplace_back(std::move(key), std::move(value));
}

void SpanGuard::set_error() {
  if (done_) return;
  span_.error = true;
}

void SpanGuard::finish() {
  if (done_) return;
  done_ = true;
  if (!active_ && !span_.error) return;
  if (!enabled()) return;
  auto& tracer = Tracer::instance();
  if (!span_.context.valid()) {
    // Error in an unsampled operation: synthesize ids so the span is
    // self-consistent (errors are always sampled).
    span_.context.trace_hi = tracer.next_id();
    span_.context.trace_lo = tracer.next_id();
    span_.context.span_id = tracer.next_id();
    span_.context.flags = kTraceFlagSampled;
  }
  span_.duration = now() - start_steady_;
  tracer.record(std::move(span_));
}

}  // namespace stampede::telemetry
