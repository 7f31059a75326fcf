// bench_view_latency — continuous-query headline numbers (DESIGN.md §13):
//
//   latency — the DART event stream is retained once, then replayed
//             record-by-record through a StampedeLoader with a COUNT /
//             aggregate view family registered. Per event: process +
//             flush + incremental maintenance, i.e. the full "event
//             committed → view updated" path a subscriber observes.
//             Reports p50/p99 (target: p99 < 10 ms).
//
//   poll vs subscribe — the dashboard's steady-state cost of watching
//             one view with NO changes flowing: a client hammering
//             GET /viewz/{id} at 100 Hz versus one parked on the
//             /viewz/{id}/wait long-poll. Reports server+client process
//             CPU per wall second for each mode; long-poll should be
//             ~free while polling burns CPU proportional to its rate.
//
// Results land in BENCH_view_latency.json (hardware_concurrency
// recorded — latency percentiles on the 1-core reference box include
// scheduler noise).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dart/experiment.hpp"
#include "dashboard/http_server.hpp"
#include "dashboard/view_routes.hpp"
#include "db/sharded_database.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/parser.hpp"
#include "orm/stampede_tables.hpp"
#include "query/continuous_views.hpp"

using namespace stampede;
using Clock = std::chrono::steady_clock;

namespace {

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[rank];
}

/// CPU seconds consumed by this process (all threads).
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct LatencyResult {
  std::size_t events = 0;
  std::size_t updates = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

LatencyResult run_latency(const std::string& log_path) {
  db::ShardedDatabase archive{1};
  orm::create_stampede_schema(archive);
  query::ContinuousQueryEngine engine{archive};
  const auto by_state = engine.register_view(
      db::Select{"jobstate"}.group_by({"state"}).count_all("n"),
      {.name = "by-state"});
  (void)engine.register_view(db::Select{"invocation"}
                                 .group_by({"transformation"})
                                 .count_all("n")
                                 .agg(db::AggFn::kAvg, "remote_duration",
                                      "mean")
                                 .agg(db::AggFn::kMax, "remote_duration",
                                      "hi"),
                             {.name = "by-xform"});

  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 0;  // The bench flushes per event itself.
  loader::StampedeLoader ldr{archive.shard(0), opts};

  std::ifstream in{log_path};
  nl::StreamParser parser{in};
  std::vector<double> latencies_ms;
  LatencyResult r;
  while (auto record = parser.next()) {
    const auto t0 = Clock::now();
    // The subscriber-visible path: apply, commit, maintain, emit.
    ldr.process(*record);
    ldr.flush_hint();
    const auto dt = Clock::now() - t0;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(dt).count());
    ++r.events;
  }
  ldr.finish();

  std::uint64_t seq = 0;
  (void)engine.snapshot(by_state, &seq);
  r.updates = seq;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  r.p50_ms = percentile(latencies_ms, 0.50);
  r.p99_ms = percentile(latencies_ms, 0.99);
  r.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
  return r;
}

struct WatchResult {
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< Server + client (same process).
};

/// Steady state: nothing changes in the view while we watch it.
WatchResult run_watch(bool subscribe, int seconds) {
  db::ShardedDatabase archive{1};
  orm::create_stampede_schema(archive);
  query::ContinuousQueryEngine engine{archive};
  const auto id = engine.register_view(
      db::Select{"jobstate"}.group_by({"state"}).count_all("n"));

  dash::HttpServer server{0};
  dash::register_view_routes(server, engine);
  server.start();

  WatchResult r;
  const auto cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(seconds);
  const std::string poll_path = "/viewz/" + std::to_string(id);
  // Long-poll timeout chosen so each parked request spans most of the
  // window; the poller re-asks at 100 Hz like a naive dashboard would.
  const std::string wait_path =
      poll_path + "/wait?seq=0&timeout_ms=" + std::to_string(seconds * 500);
  while (Clock::now() < deadline) {
    (void)dash::http_get(server.port(), subscribe ? wait_path : poll_path);
    ++r.requests;
    if (!subscribe) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  r.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.cpu_seconds = process_cpu_seconds() - cpu0;
  server.stop();
  return r;
}

}  // namespace

int main() {
  const auto log_path =
      (std::filesystem::temp_directory_path() / "bench_view_latency.bp")
          .string();
  {
    dart::DartConfig config;  // Paper-scale: 306 executions.
    db::Database scratch;
    dart::DartExperimentOptions options;
    options.retain_log_path = log_path;
    const auto result = dart::run_dart_experiment(config, scratch, options);
    if (result.status != 0) {
      std::fprintf(stderr, "WARNING: DART run finished with status %d\n",
                   result.status);
    }
  }

  const auto latency = run_latency(log_path);
  std::filesystem::remove(log_path);
  std::printf("view latency over %zu DART events (%zu view updates):\n",
              latency.events, latency.updates);
  std::printf("  p50 %.3f ms | p99 %.3f ms | max %.3f ms  (target p99 < 10)\n",
              latency.p50_ms, latency.p99_ms, latency.max_ms);

  const int kWatchSeconds = 4;
  const auto poll = run_watch(/*subscribe=*/false, kWatchSeconds);
  const auto subscribe = run_watch(/*subscribe=*/true, kWatchSeconds);
  std::printf("steady-state watch, %d s window:\n", kWatchSeconds);
  std::printf("  poll (100 Hz): %zu requests, %.3f cpu-s/s\n", poll.requests,
              poll.cpu_seconds / poll.wall_seconds);
  std::printf("  subscribe    : %zu requests, %.3f cpu-s/s\n",
              subscribe.requests,
              subscribe.cpu_seconds / subscribe.wall_seconds);

  std::FILE* out = std::fopen("BENCH_view_latency.json", "w");
  if (out == nullptr) return 1;
  std::fprintf(out,
               "{\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"latency\": {\n"
               "    \"events\": %zu,\n"
               "    \"view_updates\": %zu,\n"
               "    \"p50_ms\": %.6f,\n"
               "    \"p99_ms\": %.6f,\n"
               "    \"max_ms\": %.6f,\n"
               "    \"p99_target_ms\": 10.0\n"
               "  },\n",
               std::thread::hardware_concurrency(), latency.events,
               latency.updates, latency.p50_ms, latency.p99_ms,
               latency.max_ms);
  std::fprintf(out,
               "  \"steady_state_watch\": {\n"
               "    \"window_seconds\": %d,\n"
               "    \"poll\": {\"requests\": %zu, \"cpu_per_wall\": %.6f},\n"
               "    \"subscribe\": {\"requests\": %zu, \"cpu_per_wall\": "
               "%.6f}\n"
               "  }\n"
               "}\n",
               kWatchSeconds, poll.requests,
               poll.cpu_seconds / poll.wall_seconds, subscribe.requests,
               subscribe.cpu_seconds / subscribe.wall_seconds);
  std::fclose(out);
  return 0;
}
