#include "telemetry/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace stampede::telemetry {

double now() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (options_.bucket_count < 1) options_.bucket_count = 1;
  if (options_.growth <= 1.0) options_.growth = 2.0;
  if (options_.first_bound <= 0.0) options_.first_bound = 1e-6;
  bounds_.reserve(static_cast<std::size_t>(options_.bucket_count));
  double bound = options_.first_bound;
  for (int i = 0; i < options_.bucket_count; ++i) {
    bounds_.push_back(bound);
    bound *= options_.growth;
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::size_t Histogram::bucket_index(double value) const noexcept {
  if (!(value > bounds_.front())) return 0;  // Also catches NaN/negatives.
  // log-bucketed: index is the ceiling of log_growth(value / first_bound).
  const double exact =
      std::log(value / options_.first_bound) / std::log(options_.growth);
  auto index = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  if (index >= bounds_.size()) return bounds_.size();  // Overflow bucket.
  // Guard against floating-point edge cases right at a bound.
  while (index > 0 && value <= bounds_[index - 1]) --index;
  while (index < bounds_.size() && value > bounds_[index]) ++index;
  return index;
}

void Histogram::observe(double value) noexcept {
  if (!enabled()) return;
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  // Derive the count from the copied buckets so count and buckets agree
  // even while observes race the copy; sum is best-effort.
  snap.count = 0;
  for (const auto b : snap.buckets) snap.count += b;
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i >= bounds.size()) return bounds.back();  // Overflow bucket.
      const double upper = bounds[i];
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

// ---------------------------------------------------------------------------
// Registry

std::string labeled(std::string_view name, std::string_view key,
                    std::string_view value) {
  std::string out;
  out.reserve(name.size() + key.size() + value.size() + 5);
  out.append(name);
  out.push_back('{');
  out.append(key);
  out.append("=\"");
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.append("\"}");
  return out;
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock{mutex_};
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock{mutex_};
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               HistogramOptions options) {
  const std::scoped_lock lock{mutex_};
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

std::vector<Registry::Sample> Registry::collect() const {
  const std::scoped_lock lock{mutex_};
  std::vector<Sample> samples;
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    Sample s;
    s.name = name;
    s.type = Type::kCounter;
    s.counter_value = counter->value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    Sample s;
    s.name = name;
    s.type = Type::kGauge;
    s.gauge_value = gauge->value();
    s.gauge_high_water = gauge->high_water();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, histogram] : histograms_) {
    Sample s;
    s.name = name;
    s.type = Type::kHistogram;
    s.histogram = histogram->snapshot();
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return samples;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace stampede::telemetry
