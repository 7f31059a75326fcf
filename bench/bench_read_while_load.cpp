// bench_read_while_load — the read-path overhaul's headline numbers
// (DESIGN.md §10): query throughput sustained *during* a live DART
// ingest, and what concurrent readers cost the loader in commit stalls.
//
// Two phases:
//
//   live   — a writer thread runs the full DART pipeline into a fresh
//            archive while 0 / 1 / 4 reader threads loop
//            statistics-style queries (GROUP BY state, fleet aggregates,
//            indexed probes, a join). Reports queries/second over the
//            ingest window and the p99 loader-commit stall.
//   static — the loaded archive, no writer: pure reader scaling over
//            1 and 4 reader threads.
//
// Queries go straight to db::Database::execute — deliberately below the
// QueryExecutor cache, so the shared-lock read path (not memoization)
// is what gets measured. Results land in BENCH_read_while_load.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "dart/experiment.hpp"
#include "db/database.hpp"
#include "orm/stampede_tables.hpp"
#include "telemetry/metrics.hpp"

using namespace stampede;

namespace {

/// Scaled-down DART run (the paper's 306-execution sweep takes too long
/// for a bench loop; the archive shape is identical).
constexpr int kExecutions = 120;

dart::DartConfig bench_config() {
  dart::DartConfig config;
  config.total_executions = kExecutions;
  return config;
}

/// The reader workload: the query mix stampede-statistics issues while
/// a run is in flight.
std::vector<db::Select> reader_queries() {
  std::vector<db::Select> queries;
  queries.push_back(
      db::Select{"jobstate"}.group_by({"state"}).count_all("n"));
  queries.push_back(db::Select{"invocation"}
                        .agg(db::AggFn::kAvg, "remote_duration", "avg_dur")
                        .agg(db::AggFn::kMax, "remote_duration", "max_dur"));
  queries.push_back(db::Select{"jobstate"}
                        .where(db::eq("state", db::Value{"EXECUTE"}))
                        .count_all("n"));
  queries.push_back(db::Select{"invocation"}
                        .join("job_instance", "job_instance_id",
                              "job_instance_id")
                        .where(db::eq("invocation.exitcode",
                                      db::Value{std::int64_t{0}}))
                        .count_all("ok"));
  return queries;
}

struct LiveResult {
  double writer_seconds = 0.0;
  double qps = 0.0;           ///< Reader queries/second during the ingest.
  double commit_p99_ms = 0.0; ///< Loader commit stall, 99th percentile.
  std::uint64_t queries = 0;
  std::uint64_t commits = 0;
};

/// One live-ingest run: DART writer vs `readers` query threads.
LiveResult run_live(int readers) {
  db::Database archive;
  orm::create_stampede_schema(archive);

  // A fresh histogram per configuration keeps the p99s separable.
  auto& commit_hist = telemetry::registry().histogram(telemetry::labeled(
      "bench_rwl_commit_latency_seconds", "cfg",
      std::to_string(readers) + "r"));
  archive.set_commit_latency_sink(&commit_hist);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_queries{0};
  std::vector<std::thread> threads;
  threads.reserve(readers);
  const auto queries = reader_queries();
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t done = 0;
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto rs = archive.execute(queries[i++ % queries.size()]);
        if (rs.columns.empty()) std::abort();  // Keep the result observed.
        ++done;
      }
      total_queries.fetch_add(done, std::memory_order_relaxed);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  dart::run_dart_experiment(bench_config(), archive, {});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  archive.set_commit_latency_sink(nullptr);

  LiveResult result;
  result.writer_seconds = secs;
  result.queries = total_queries.load();
  result.qps = secs > 0 ? static_cast<double>(result.queries) / secs : 0.0;
  const auto snap = commit_hist.snapshot();
  result.commit_p99_ms = snap.quantile(0.99) * 1e3;
  result.commits = snap.count;
  return result;
}

/// Static phase: `readers` threads loop the query mix over a loaded,
/// quiescent archive for `window_s`; returns aggregate queries/second.
double run_static(db::Database& archive, int readers, double window_s) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_queries{0};
  const auto queries = reader_queries();
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t done = 0;
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto rs = archive.execute(queries[i++ % queries.size()]);
        if (rs.columns.empty()) std::abort();  // Keep the result observed.
        ++done;
      }
      total_queries.fetch_add(done, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return secs > 0 ? static_cast<double>(total_queries.load()) / secs : 0.0;
}

void emit_json(const LiveResult live[3], const double static_qps[2]) {
  std::FILE* out = std::fopen("BENCH_read_while_load.json", "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\n"
               "  \"workload\": \"DART ingest, %d executions x 16 tasks\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"live\": {\n",
               kExecutions, std::thread::hardware_concurrency());
  const int reader_counts[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    const LiveResult& r = live[i];
    std::fprintf(out,
                 "    \"readers_%d\": {\"qps\": %.0f, "
                 "\"commit_p99_ms\": %.4f, \"writer_seconds\": %.3f, "
                 "\"commits\": %llu}%s\n",
                 reader_counts[i], r.qps, r.commit_p99_ms, r.writer_seconds,
                 static_cast<unsigned long long>(r.commits),
                 i < 2 ? "," : "");
  }
  std::fprintf(out,
               "  },\n"
               "  \"static_read\": {\"readers_1\": %.0f, \"readers_4\": "
               "%.0f},\n"
               "  \"commit_p99_ratio_4r_vs_0r\": %.3f\n"
               "}\n",
               static_qps[0], static_qps[1],
               live[0].commit_p99_ms > 0
                   ? live[2].commit_p99_ms / live[0].commit_p99_ms
                   : 0.0);
  std::fclose(out);
}

}  // namespace

int main() {
  // Phase A: live ingest with 0 / 1 / 4 concurrent readers.
  LiveResult live[3];
  const int reader_counts[3] = {0, 1, 4};
  for (int i = 0; i < 3; ++i) {
    live[i] = run_live(reader_counts[i]);
    std::printf(
        "live readers=%d: %7.0f q/s, commit p99 %.3f ms "
        "(%llu commits, writer %.2fs)\n",
        reader_counts[i], live[i].qps, live[i].commit_p99_ms,
        static_cast<unsigned long long>(live[i].commits),
        live[i].writer_seconds);
  }

  // Phase B: static reader scaling over one loaded archive.
  db::Database archive;
  orm::create_stampede_schema(archive);
  dart::run_dart_experiment(bench_config(), archive, {});
  const double static_qps[2] = {run_static(archive, 1, 0.5),
                                run_static(archive, 4, 0.5)};
  std::printf("static: 1 reader %7.0f q/s, 4 readers %7.0f q/s\n",
              static_qps[0], static_qps[1]);

  emit_json(live, static_qps);
  return 0;
}
