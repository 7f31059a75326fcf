// Fault-injection tests for the crash-safe bus→loader pipeline
// (DESIGN.md "Delivery guarantees"): spool recovery replays exactly the
// unacked suffix, compaction bounds the spool under sustained ack
// traffic, torn trailing records are tolerated while mid-file corruption
// is fatal, poison messages dead-letter after max_redeliveries, and a
// loader killed mid-batch converges — after restart and replay — to a
// stampede_statistics output byte-identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "bus/spool.hpp"
#include "common/errors.hpp"
#include "dart/experiment.hpp"
#include "db/sharded_database.hpp"
#include "loader/nl_load.hpp"
#include "loader/sharded_loader.hpp"
#include "orm/stampede_tables.hpp"
#include "query/query_executor.hpp"
#include "query/query_interface.hpp"
#include "query/statistics.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"

namespace fs = std::filesystem;
namespace bus = stampede::bus;
namespace spool = stampede::bus::spool;
namespace db = stampede::db;
namespace dart = stampede::dart;
namespace loader = stampede::loader;
namespace query = stampede::query;
namespace telemetry = stampede::telemetry;
using db::Value;

namespace {

bus::Message persistent_msg(std::string key, std::string body) {
  bus::Message m;
  m.routing_key = std::move(key);
  m.body = std::move(body);
  m.persistent = true;
  return m;
}

/// Fresh temp directory, removed again by the destructor.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

std::uint64_t counter_value(const std::string& name) {
  return telemetry::registry().counter(name).value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Spool checkpointing: recovery replays only the unacked suffix

TEST(FaultInjection, SpoolRecoveryReplaysOnlyUnacked) {
  TempDir dir{"stampede_fault_spool_unacked"};
  {
    bus::Broker broker{dir.path.string()};
    broker.declare_queue("q", {.durable = true});
    for (int i = 0; i < 10; ++i) {
      broker.publish("", persistent_msg("q", "m" + std::to_string(i)));
    }
    for (int i = 0; i < 6; ++i) {
      const auto d = broker.basic_get("q", "c");
      ASSERT_TRUE(d.has_value());
      EXPECT_TRUE(broker.ack("q", d->delivery_tag));
    }
  }
  // "Crash" + restart: only the four unacked messages come back, in
  // publish order, flagged as possible redeliveries.
  bus::Broker broker{dir.path.string()};
  broker.declare_queue("q", {.durable = true});
  EXPECT_EQ(broker.queue_stats("q").depth, 4u);
  for (int i = 6; i < 10; ++i) {
    const auto d = broker.basic_get("q", "c");
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->message().body, "m" + std::to_string(i));
    EXPECT_TRUE(d->redelivered);
    broker.ack("q", d->delivery_tag);
  }
  EXPECT_FALSE(broker.basic_get("q", "c").has_value());
}

TEST(FaultInjection, AckedSpoolStaysCompactBelowBound) {
  TempDir dir{"stampede_fault_spool_compact"};
  const auto spool_file = dir.path / "q.spool";
  const auto compactions_before =
      counter_value("stampede_bus_spool_compactions_total");
  {
    bus::Broker broker{dir.path.string()};
    broker.declare_queue(
        "q", {.durable = true, .spool_compact_threshold = 64});
    for (int i = 0; i < 1000; ++i) {
      broker.publish(
          "", persistent_msg("q", "ts=1331642138 event=stampede.job.info"));
      const auto d = broker.basic_get("q", "c");
      ASSERT_TRUE(d.has_value());
      ASSERT_TRUE(broker.ack("q", d->delivery_tag));
    }
    // 1000 publish/ack cycles ≈ 2000 records uncompacted (~100 KiB);
    // with threshold 64 the file must stay a small multiple of that.
    ASSERT_TRUE(fs::exists(spool_file));
    EXPECT_LT(fs::file_size(spool_file), 16u * 1024u);
    EXPECT_GE(counter_value("stampede_bus_spool_compactions_total") -
                  compactions_before,
              10u);
  }
  // Restart with everything acked: nothing replays and the recovery
  // rewrite leaves an (almost) empty spool.
  bus::Broker broker{dir.path.string()};
  broker.declare_queue("q", {.durable = true, .spool_compact_threshold = 64});
  EXPECT_EQ(broker.queue_stats("q").depth, 0u);
  EXPECT_LT(fs::file_size(spool_file), 64u);
}

// ---------------------------------------------------------------------------
// Torn / corrupt / headerless spool files

TEST(FaultInjection, TornTrailingSpoolRecordIsDiscarded) {
  TempDir dir{"stampede_fault_spool_torn"};
  const auto file = dir.path / "q.spool";
  {
    std::ofstream out{file};
    out << spool::kHeader << '\n';
    out << spool::encode_message(1, "q", "first body") << '\n';
    out << spool::encode_message(2, "q", "second body") << '\n';
    out << "M 3 q \"torn mid-app";  // Crash mid-append: no closing quote.
  }
  const auto recovered = spool::recover_file(file.string());
  EXPECT_EQ(recovered.truncated, 1u);
  EXPECT_EQ(recovered.live.size(), 2u);
  EXPECT_EQ(recovered.next_seq, 3u);

  bus::Broker broker{dir.path.string()};
  broker.declare_queue("q", {.durable = true});
  EXPECT_EQ(broker.queue_stats("q").depth, 2u);
  EXPECT_EQ(broker.basic_get("q", "c")->message().body, "first body");
  EXPECT_EQ(broker.basic_get("q", "c")->message().body, "second body");
}

TEST(FaultInjection, MidFileSpoolCorruptionIsFatal) {
  TempDir dir{"stampede_fault_spool_corrupt"};
  const auto file = dir.path / "q.spool";
  {
    std::ofstream out{file};
    out << spool::kHeader << '\n';
    out << spool::encode_message(1, "q", "ok") << '\n';
    out << "garbage that is not a record\n";
    out << spool::encode_message(2, "q", "after the damage") << '\n';
  }
  // A bad record *followed by valid ones* is real corruption, not a torn
  // tail; silently skipping it would be data loss.
  EXPECT_THROW(spool::recover_file(file.string()), stampede::common::BusError);
  bus::Broker broker{dir.path.string()};
  EXPECT_THROW(broker.declare_queue("q", {.durable = true}),
               stampede::common::BusError);
}

TEST(FaultInjection, HeaderlessSpoolIsFatal) {
  TempDir dir{"stampede_fault_spool_headerless"};
  const auto file = dir.path / "q.spool";
  {
    // No header line: not a spool this broker wrote.
    std::ofstream out{file};
    out << "q \"ts=1 event=headerless.one\"\n";
    out << "q \"ts=2 event=headerless.two\"\n";
  }
  EXPECT_THROW(spool::recover_file(file.string()), stampede::common::BusError);
  bus::Broker broker{dir.path.string()};
  EXPECT_THROW(broker.declare_queue("q", {.durable = true}),
               stampede::common::BusError);
}

// ---------------------------------------------------------------------------
// Poison messages: bounded retries with backoff, then the dead-letter queue

TEST(FaultInjection, PoisonMessageDeadLettersAfterMaxRedeliveries) {
  bus::Broker broker;
  broker.declare_queue("dlq");
  broker.declare_queue("work", {.max_redeliveries = 3,
                                .dead_letter_queue = "dlq"});
  std::atomic<int> attempts{0};
  const auto start = std::chrono::steady_clock::now();
  auto sub = broker.subscribe("work", [&attempts](const bus::Delivery&) {
    ++attempts;
    return false;  // Poison: every delivery fails.
  });
  broker.publish("", persistent_msg("work", "ts=1 event=poison"));

  const auto deadline = start + std::chrono::seconds(5);
  while (broker.queue_stats("dlq").depth == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(broker.queue_stats("dlq").depth, 1u);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Exponential backoff between attempts (10 + 20 + 40 ms minimum), so
  // this was never a hot requeue loop.
  EXPECT_GE(elapsed.count(), 60);

  // Exactly 1 initial + 3 redeliveries; nothing further arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(attempts.load(), 4);
  sub.cancel();

  const auto work = broker.queue_stats("work");
  EXPECT_EQ(work.depth, 0u);
  EXPECT_EQ(work.unacked, 0u);
  EXPECT_EQ(work.dead_lettered, 1u);
  EXPECT_EQ(work.redelivered, 3u);

  const auto dead = broker.basic_get("dlq", "postmortem");
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->message().body, "ts=1 event=poison");
  ASSERT_TRUE(dead->message().headers.count("x-death-queue"));
  EXPECT_EQ(dead->message().headers.at("x-death-queue"), "work");
  EXPECT_EQ(dead->message().headers.at("x-death-reason"), "max_redeliveries");
  EXPECT_EQ(dead->message().headers.at("x-death-count"), "4");

  // The counters are visible on /metrics.
  const std::string metrics = telemetry::to_prometheus(telemetry::registry());
  EXPECT_NE(metrics.find("stampede_bus_dead_lettered_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("stampede_bus_spool_compactions_total"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Kill the loader mid-batch: restart + replay is byte-identical

namespace {

/// The acceptance-bar render from test_sharding, reused as the
/// convergence oracle: summary + per-child breakdown/jobs + host usage.
std::string render_statistics(const db::ShardedDatabase& archive,
                              std::int64_t root) {
  const query::QueryInterface q{archive};
  const query::StampedeStatistics stats{q};
  std::string text =
      query::StampedeStatistics::render_summary(stats.summary(root));
  for (const auto& child : q.children_of(root)) {
    text += query::StampedeStatistics::render_breakdown(
        stats.breakdown(child.wf_id));
    text += query::StampedeStatistics::render_jobs_invocations(
        stats.jobs(child.wf_id));
    text += query::StampedeStatistics::render_jobs_queue(
        stats.jobs(child.wf_id));
  }
  text +=
      query::StampedeStatistics::render_host_usage(stats.host_usage(root));
  return text;
}

std::optional<std::int64_t> wf_id_of(const db::ShardedDatabase& archive,
                                     const stampede::common::Uuid& uuid) {
  query::QueryExecutor exec{archive};
  const auto rs = exec.execute(db::Select{"workflow"}
                                   .where(db::eq("wf_uuid",
                                                 Value{uuid.to_string()}))
                                   .columns({"wf_id"}));
  if (rs->size() != 1) return std::nullopt;
  return rs->at(0, "wf_id").as_int();
}

/// Publishes a DART workload through the durable bus into a WAL-backed
/// sharded archive, "kills" broker + loader mid-stream (snapshotting
/// their on-disk state at the injection point), restarts everything from
/// the snapshot, publishes the rest, and requires the final statistics
/// render to be byte-identical to an uninterrupted in-memory run.
void crash_replay_converges(std::size_t shard_count) {
  TempDir dir{"stampede_fault_crash_" + std::to_string(shard_count)};

  // Workload: the retained DART log (same config as test_sharding).
  dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.tones_per_task = 2;
  db::Database live;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  const auto log_path = dir.path / "retained.bp";
  options.retain_log_path = log_path.string();
  const auto result = dart::run_dart_experiment(config, live, options);
  ASSERT_EQ(result.status, 0);

  std::vector<std::string> lines;
  {
    std::ifstream in{log_path};
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  ASSERT_GT(lines.size(), 100u);

  // Uninterrupted baseline: straight file replay into a fresh archive.
  std::string clean_render;
  std::size_t clean_rows = 0;
  {
    db::ShardedDatabase archive{shard_count};
    stampede::orm::create_stampede_schema(archive);
    loader::ShardedLoader l{archive};
    ASSERT_EQ(loader::load_file(log_path.string(), l).parse_errors, 0u);
    const auto root = wf_id_of(archive, result.root_uuid);
    ASSERT_TRUE(root.has_value());
    clean_render = render_statistics(archive, *root);
    clean_rows = archive.row_count("jobstate");
  }
  ASSERT_FALSE(clean_render.empty());

  const auto spool_a = dir.path / "spool_a";
  const auto spool_b = dir.path / "spool_b";
  fs::create_directories(spool_a);
  fs::create_directories(spool_b);
  const std::string wal_a = (dir.path / "archive_a.wal").string();
  const std::string wal_b = (dir.path / "archive_b.wal").string();
  bus::QueueOptions qopts;
  qopts.durable = true;
  // Keep every record until the injected crash so the snapshot below
  // captures the full publish/ack history rather than racing a rewrite.
  qopts.spool_compact_threshold = 1u << 20;

  const std::size_t split = lines.size() / 2;
  {
    // Run A: publish the first half, let the pump get partway through
    // it, then pull the plug.
    bus::Broker broker{spool_a.string()};
    broker.declare_queue("stampede", qopts);
    db::ShardedDatabase archive{shard_count, wal_a};
    stampede::orm::create_stampede_schema(archive);
    loader::ShardedLoader l{archive};
    loader::QueuePump pump{broker, "stampede", l};
    pump.start();
    for (std::size_t i = 0; i < split; ++i) {
      broker.publish("", persistent_msg("stampede", lines[i]));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // Injected crash: freeze the durable state mid-batch. The spool is
    // snapshotted BEFORE the WAL — acks trail commits, so every ack in
    // the copied spool has its transaction in the copied WAL (never the
    // reverse), preserving acked ⊆ committed. Both copies may end in a
    // torn line; both formats tolerate exactly that.
    fs::copy_file(spool_a / "stampede.spool", spool_b / "stampede.spool",
                  fs::copy_options::overwrite_existing);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const auto src =
          db::ShardedDatabase::shard_wal_path(wal_a, s, shard_count);
      if (fs::exists(src)) {
        fs::copy_file(src,
                      db::ShardedDatabase::shard_wal_path(wal_b, s,
                                                          shard_count),
                      fs::copy_options::overwrite_existing);
      }
    }
    // The originals are dead to us; scope exit discards them.
  }

  // Run B: restart every component from the snapshot and finish the
  // stream. Replayed messages arrive redelivered=true and the loader's
  // replay dedup must make them no-ops where run A already committed.
  db::ShardedDatabase archive{shard_count, wal_b};
  stampede::orm::create_stampede_schema(archive);
  archive.recover();
  bus::Broker broker{spool_b.string()};
  broker.declare_queue("stampede", qopts);
  loader::ShardedLoader l{archive};
  loader::QueuePump pump{broker, "stampede", l};
  pump.start();
  for (std::size_t i = split; i < lines.size(); ++i) {
    broker.publish("", persistent_msg("stampede", lines[i]));
  }
  ASSERT_TRUE(pump.wait_until_drained(/*timeout_ms=*/60000));
  pump.stop();

  const auto root = wf_id_of(archive, result.root_uuid);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(archive.row_count("jobstate"), clean_rows);
  // The acceptance bar: crash + replay converges byte-identically.
  EXPECT_EQ(render_statistics(archive, *root), clean_render);
}

}  // namespace

TEST(FaultInjection, CrashMidBatchConvergesByteIdenticalOneShard) {
  crash_replay_converges(1);
}

TEST(FaultInjection, CrashMidBatchConvergesByteIdenticalFourShards) {
  crash_replay_converges(4);
}
