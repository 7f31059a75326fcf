#pragma once
// Measurement plumbing shared by the workloads: clocks, percentiles with
// their sample counts, registry deltas, in-memory spans, and the result
// line the benchmark prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace pipebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double thread_cpu_s();   ///< CLOCK_THREAD_CPUTIME_ID.
[[nodiscard]] double process_cpu_s();  ///< getrusage user + system.
[[nodiscard]] double peak_rss_mib();   ///< ru_maxrss.
[[nodiscard]] double heap_in_use_mib();  ///< malloc'd and not freed (mallinfo2).

/// Nearest-rank percentile of `samples` (sorted in place).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< Samples the percentile was taken over.
  std::size_t beyond = 0;   ///< Samples strictly above its rank.
};
[[nodiscard]] Percentile percentile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Point-in-time copy of the process-wide telemetry registry, for
/// before/after deltas around a measured region.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  /// Sum of every counter whose name is `name` or starts with `name{`.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// Merged histogram of every series named `name` or `name{...}`.
  [[nodiscard]] stampede::telemetry::Histogram::Snapshot histogram(
      const std::string& name) const;

 private:
  std::vector<stampede::telemetry::Registry::Sample> samples_;
};

/// after - before, per counter and per histogram bucket.
struct RegistryDelta {
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after)
      : before_(&before), after_(&after) {}
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] stampede::telemetry::Histogram::Snapshot histogram(
      const std::string& name) const;

 private:
  const RegistrySnapshot* before_;
  const RegistrySnapshot* after_;
};

/// Spans recorded by the benchmark around its calls into each layer.
/// Kept in memory while the run lasts and written out at its end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< Seconds since the log was created.
    double end_s = 0.0;
    int parent = -1;  ///< Index of the enclosing span; -1 for roots.
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);

  /// Writes one JSON object per line: name, start_s, end_s, parent.
  void write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(&log), index_(log.enabled() ? log.open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// What one run reports: the result line plus metadata.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Reports a percentile; a percentile with fewer than ten samples
  /// beyond it fails the run's output check.
  void percentile_metric(const std::string& name, const Percentile& p,
                         const std::string& unit);

  /// Counts one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void operations(std::uint64_t attempted, std::uint64_t failed,
                  const std::string& what);

  void meta(const std::string& key, const std::string& json_value);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Prints the metadata line (run facts, sample counts, failed checks),
  /// then the result line with every metric (always last).
  void print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Quotes `s` as a JSON string.
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace pipebench
