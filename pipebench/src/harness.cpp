#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace pipebench {
namespace {

namespace tele = stampede::telemetry;

bool series_of(const std::string& sample, const std::string& name) {
  return sample == name ||
         (sample.size() > name.size() && sample.compare(0, name.size(), name) == 0 &&
          sample[name.size()] == '{');
}

tele::Histogram::Snapshot merged(
    const std::vector<tele::Registry::Sample>& samples, const std::string& name) {
  tele::Histogram::Snapshot out;
  for (const auto& s : samples) {
    if (s.type != tele::Registry::Type::kHistogram || !series_of(s.name, name)) {
      continue;
    }
    if (out.buckets.empty()) {
      out.bounds = s.histogram.bounds;
      out.buckets.assign(s.histogram.buckets.size(), 0);
    }
    if (s.histogram.buckets.size() != out.buckets.size()) {
      throw std::runtime_error("histogram layouts differ for " + name);
    }
    out.count += s.histogram.count;
    out.sum += s.histogram.sum;
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] += s.histogram.buckets[i];
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double heap_in_use_mib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  p.value = samples[index];
  p.beyond = samples.size() - 1 - index;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot s;
  s.samples_ = tele::registry().collect();
  return s;
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& s : samples_) {
    if (s.type == tele::Registry::Type::kCounter && series_of(s.name, name)) {
      total += s.counter_value;
    }
  }
  return total;
}

tele::Histogram::Snapshot RegistrySnapshot::histogram(const std::string& name) const {
  return merged(samples_, name);
}

double RegistryDelta::counter(const std::string& name) const {
  return static_cast<double>(after_->counter(name)) -
         static_cast<double>(before_->counter(name));
}

tele::Histogram::Snapshot RegistryDelta::histogram(const std::string& name) const {
  tele::Histogram::Snapshot after = after_->histogram(name);
  const tele::Histogram::Snapshot before = before_->histogram(name);
  if (before.buckets.size() == after.buckets.size()) {
    after.count -= before.count;
    after.sum -= before.sum;
    for (std::size_t i = 0; i < after.buckets.size(); ++i) {
      after.buckets[i] -= before.buckets[i];
    }
  }
  return after;
}

int SpanLog::open(std::string name) {
  const double now = seconds_between(origin_, Clock::now());
  spans_.push_back({std::move(name), now, now, open_.empty() ? -1 : open_.back()});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(origin_, Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const auto& s : spans_) {
    out << "{\"name\": " << json_string(s.name) << ", \"start_s\": "
        << number(s.start_s) << ", \"end_s\": " << number(s.end_s)
        << ", \"parent\": " << s.parent << "}\n";
  }
}

void Result::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Result::percentile_metric(const std::string& name, const Percentile& p,
                               const std::string& unit) {
  metric(name, p.value, unit, p.samples);
  check(p.beyond >= 10, name + " has " + std::to_string(p.beyond) +
                            " samples beyond it (needs 10)");
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    problems_.push_back(what);
  }
}

void Result::operations(std::uint64_t attempted, std::uint64_t failed,
                        const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    problems_.push_back(what + ": " + std::to_string(failed) + " of " +
                        std::to_string(attempted) + " failed");
  }
}

void Result::meta(const std::string& key, const std::string& json_value) {
  meta_.emplace_back(key, json_value);
}

void Result::print() const {
  std::string line = "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(meta_[i].first) + ": " + meta_[i].second;
  }
  line += "}, \"samples\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": " + std::to_string(m.samples);
  }
  line += "}, \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(problems_[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());

  const bool correct = failed_ == 0 && problems_.empty();
  line = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1)) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace pipebench
