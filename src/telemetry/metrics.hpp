#pragma once
// Self-telemetry primitives: the monitoring system monitoring itself.
//
// The paper's pitch is *real-time* loading — events reach the archive
// "while the workflow is still running" (§IV-D/E) — but that claim is
// only as good as our ability to measure it. This module provides the
// thread-safe, low-overhead instruments the pipeline hot paths use:
// atomic counters, gauges with high-water tracking, and log-bucketed
// histograms with percentile extraction. A Registry owns instruments by
// name and hands out stable references so hot paths pay one lookup at
// construction time and plain relaxed atomics afterwards.
//
// Cost model: every mutation is a relaxed atomic RMW (plus one log2 for
// histograms) behind a relaxed enabled() check;
// bench/bench_telemetry_overhead.cpp quantifies it against the switch
// turned off.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stampede::telemetry {

// ---------------------------------------------------------------------------
// Runtime switch + monotonic clock

namespace detail {
inline std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail

/// Global runtime kill-switch (default on). Checked with relaxed loads on
/// every instrument mutation; flipping it off reduces telemetry to a
/// single predictable branch per site.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// Monotonic seconds since process start (steady clock). All trace
/// stamps share this base so cross-stage differences are meaningful even
/// when the wall clock steps.
[[nodiscard]] double now() noexcept;

/// now() when telemetry is enabled, 0.0 otherwise. Stages treat a zero
/// stamp as "not traced" and skip downstream observations.
[[nodiscard]] inline double trace_now() noexcept {
  return enabled() ? now() : 0.0;
}

// ---------------------------------------------------------------------------
// Instruments

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, pending rows...) with a high-water
/// mark so short spikes survive scrape intervals.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    raise_high_water(v);
  }

  void add(std::int64_t delta) noexcept {
    if (!enabled()) return;
    const std::int64_t v =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_high_water(v);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(std::int64_t v) noexcept {
    std::int64_t seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen && !high_water_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> high_water_{0};
};

/// Bucket layout for a log-bucketed histogram: bucket i covers
/// (first_bound * growth^(i-1), first_bound * growth^i]; one overflow
/// bucket catches everything beyond the last bound. The defaults span
/// 1µs .. ~9 minutes of latency in 40 power-of-two buckets.
struct HistogramOptions {
  double first_bound = 1e-6;
  double growth = 2.0;
  int bucket_count = 40;
};

/// Lock-free log-bucketed histogram over non-negative doubles.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void observe(double value) noexcept;

  /// Consistent-enough copy for exposition (buckets are read relaxed;
  /// concurrent observes may straddle the copy, never corrupt it).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;         ///< Upper bound per finite bucket.
    std::vector<std::uint64_t> buckets; ///< bounds.size() + 1 (overflow).

    [[nodiscard]] double mean() const noexcept {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// q in [0,1]; linear interpolation inside the winning bucket. The
    /// overflow bucket reports the last finite bound.
    [[nodiscard]] double quantile(double q) const noexcept;
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t bucket_index(double value) const noexcept;

  HistogramOptions options_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Registry

/// Builds "name{key=\"value\"}" — the labeled-series naming convention
/// the registry and the Prometheus exposition share. Quotes and
/// backslashes in the value are escaped.
[[nodiscard]] std::string labeled(std::string_view name, std::string_view key,
                                  std::string_view value);

/// Thread-safe instrument directory. get-or-create returns references
/// that stay valid for the registry's lifetime, so hot paths resolve
/// their instruments once and never touch the registry lock again.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, HistogramOptions options = {});

  enum class Type { kCounter, kGauge, kHistogram };

  struct Sample {
    std::string name;
    Type type = Type::kCounter;
    std::uint64_t counter_value = 0;
    std::int64_t gauge_value = 0;
    std::int64_t gauge_high_water = 0;
    Histogram::Snapshot histogram;
  };

  /// Point-in-time copy of every instrument, sorted by name.
  [[nodiscard]] std::vector<Sample> collect() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every built-in instrumentation site uses.
[[nodiscard]] Registry& registry();

}  // namespace stampede::telemetry
