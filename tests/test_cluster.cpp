// Distributed archive tests (DESIGN.md §14): wire codecs, the shard
// map, bounded link retries, router+shard-host ingest/query parity with
// a local sharded run (down to the WAL bytes), multi-host DART
// statistics byte-identity, primary kill → follower promotion with a
// torn replicated WAL, and the /clusterz + /readyz endpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bus/bp_publisher.hpp"
#include "bus/broker.hpp"
#include "cluster/cluster_routes.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/wire.hpp"
#include "common/hash.hpp"
#include "common/socket.hpp"
#include "dart/experiment.hpp"
#include "dashboard/http_server.hpp"
#include "db/sharded_database.hpp"
#include "loader/nl_load.hpp"
#include "loader/sharded_loader.hpp"
#include "net/client_link.hpp"
#include "netlogger/events.hpp"
#include "netlogger/formatter.hpp"
#include "netlogger/parser.hpp"
#include "orm/stampede_tables.hpp"
#include "query/query_interface.hpp"
#include "query/statistics.hpp"
#include "telemetry/metrics.hpp"

namespace nl = stampede::nl;
namespace ev = stampede::nl::events;
namespace attr = stampede::nl::events::attr;
namespace cluster = stampede::cluster;
namespace dart = stampede::dart;
namespace dash = stampede::dash;
namespace db = stampede::db;
namespace loader = stampede::loader;
namespace net = stampede::net;
namespace orm = stampede::orm;
namespace query = stampede::query;
using db::Value;
using stampede::common::Uuid;

namespace {

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Uuid wf_uuid(int i) {
  char buf[37];
  std::snprintf(buf, sizeof buf, "dddddddd-0000-4000-8000-%012d", i);
  return *Uuid::parse(buf);
}

nl::LogRecord wf_event(const Uuid& wf, double ts, std::string_view event) {
  nl::LogRecord r{ts, std::string{event}};
  r.set(attr::kXwfId, wf);
  return r;
}

/// One workflow's stream: plan, start, then J jobs through the full
/// SUBMIT → ... → SUCCESS ladder (the test_sharding generator).
std::vector<nl::LogRecord> synthetic_workflow(const Uuid& wf, int jobs) {
  std::vector<nl::LogRecord> events;
  double t = 1000.0;
  auto plan = wf_event(wf, t, ev::kWfPlan);
  plan.set(attr::kDaxLabel, std::string{"stress"});
  events.push_back(plan);
  auto start = wf_event(wf, t += 1, ev::kXwfStart);
  start.set(attr::kRestartCount, std::int64_t{0});
  events.push_back(start);
  for (int j = 0; j < jobs; ++j) {
    const std::string name = "job-" + std::to_string(j);
    auto info = wf_event(wf, t += 1, ev::kJobInfo);
    info.set(attr::kJobId, name);
    events.push_back(info);
    for (const auto* e :
         {ev::kJobInstSubmitStart.data(), ev::kJobInstHeldStart.data(),
          ev::kJobInstHeldEnd.data(), ev::kJobInstMainStart.data(),
          ev::kJobInstMainTerm.data(), ev::kJobInstMainEnd.data()}) {
      auto r = wf_event(wf, t += 1, e);
      r.set(attr::kJobId, name);
      r.set(attr::kJobInstId, std::int64_t{1});
      r.set(attr::kExitcode, std::int64_t{0});
      events.push_back(r);
    }
  }
  return events;
}

/// Round-robin interleave of several workflows' streams.
std::vector<nl::LogRecord> interleaved(int workflows, int jobs,
                                       int first_uuid = 0) {
  std::vector<std::vector<nl::LogRecord>> streams;
  for (int w = 0; w < workflows; ++w) {
    streams.push_back(synthetic_workflow(wf_uuid(first_uuid + w), jobs));
  }
  std::vector<nl::LogRecord> all;
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (auto& stream : streams) all.push_back(stream[i]);
  }
  return all;
}

/// A fleet of in-process shard hosts plus a spec string for the router.
struct Fleet {
  std::vector<std::unique_ptr<cluster::ShardHost>> hosts;
  std::string spec;

  /// `groups[i]` = shards of host i (e.g. {{0, 1}, {2, 3}}). A non-empty
  /// follower_of[i] starts a follower host replicating host i's WALs.
  static Fleet start(const std::filesystem::path& dir,
                     const std::vector<std::vector<std::size_t>>& groups,
                     std::size_t total,
                     const std::vector<bool>& with_follower = {}) {
    Fleet fleet;
    std::vector<int> follower_ports(groups.size(), 0);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (i < with_follower.size() && with_follower[i]) {
        cluster::ShardHostOptions fo;
        fo.wal_base = (dir / ("follower" + std::to_string(i) + ".db")).string();
        fo.total_shards = total;
        fo.follower = true;
        fleet.hosts.push_back(std::make_unique<cluster::ShardHost>(fo));
        fleet.hosts.back()->start();
        follower_ports[i] = fleet.hosts.back()->port();
      }
    }
    for (std::size_t i = 0; i < groups.size(); ++i) {
      cluster::ShardHostOptions options;
      options.wal_base = (dir / ("host" + std::to_string(i) + ".db")).string();
      options.shards = groups[i];
      options.total_shards = total;
      if (follower_ports[i] != 0) {
        options.follower_addr =
            cluster::HostAddr{"127.0.0.1", follower_ports[i]};
      }
      fleet.hosts.push_back(std::make_unique<cluster::ShardHost>(options));
      fleet.hosts.back()->start();
      if (!fleet.spec.empty()) fleet.spec += ";";
      for (std::size_t s = 0; s < groups[i].size(); ++s) {
        fleet.spec += (s ? "," : "") + std::to_string(groups[i][s]);
      }
      fleet.spec +=
          "@127.0.0.1:" + std::to_string(fleet.hosts.back()->port());
      if (follower_ports[i] != 0) {
        fleet.spec += "/127.0.0.1:" + std::to_string(follower_ports[i]);
      }
    }
    return fleet;
  }

  /// The active host serving shard-group `i` (followers precede actives
  /// in `hosts`, so index from the back).
  cluster::ShardHost& active(std::size_t i, std::size_t n_groups) {
    return *hosts[hosts.size() - n_groups + i];
  }
};

/// The stampede_statistics render for a workflow tree — the byte-identity
/// acceptance surface (same rendering test_sharding uses).
std::string render_statistics(const query::QueryInterface& q,
                              std::int64_t root) {
  const query::StampedeStatistics stats{q};
  std::string text =
      query::StampedeStatistics::render_summary(stats.summary(root));
  for (const auto& child : q.children_of(root)) {
    text += query::StampedeStatistics::render_breakdown(
        stats.breakdown(child.wf_id));
    text += query::StampedeStatistics::render_jobs_invocations(
        stats.jobs(child.wf_id));
    text +=
        query::StampedeStatistics::render_jobs_queue(stats.jobs(child.wf_id));
  }
  text += query::StampedeStatistics::render_host_usage(stats.host_usage(root));
  return text;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire codecs

TEST(ClusterWire, ValueRoundTripIsBitExact) {
  const double weird = std::nextafter(0.1, 1.0);
  const std::vector<Value> values = {
      Value::null(), Value{std::int64_t{-7}},
      Value{std::int64_t{1} << 62}, Value{weird},
      Value{std::nan("")}, Value{std::string{"text with | pipe\nand newline"}},
      Value{std::string{}}};
  std::string buf;
  for (const auto& v : values) cluster::encode_value(buf, v);
  net::PayloadReader reader{buf};
  for (const auto& v : values) {
    Value out;
    ASSERT_TRUE(cluster::decode_value(reader, &out));
    EXPECT_EQ(v.is_null(), out.is_null());
    if (v.is_int()) EXPECT_EQ(v.as_int(), out.as_int());
    if (v.is_real()) {
      // Bit-exact, so NaN and signed zero survive the wire.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v.as_real()),
                std::bit_cast<std::uint64_t>(out.as_real()));
    }
    if (v.is_text()) EXPECT_EQ(v.as_text(), out.as_text());
  }
  EXPECT_TRUE(reader.complete());
}

TEST(ClusterWire, RecordRoundTripKeepsTimestampBits) {
  nl::LogRecord record{1234567890.123456789, std::string{ev::kJobInstMainEnd}};
  record.set(attr::kXwfId, wf_uuid(1));
  record.set(attr::kJobId, std::string{"job-0"});
  record.set(attr::kJobInstId, std::int64_t{3});
  record.set(attr::kExitcode, std::int64_t{-1});

  std::string buf;
  cluster::encode_record(buf, record);
  net::PayloadReader reader{buf};
  nl::LogRecord out;
  ASSERT_TRUE(cluster::decode_record(reader, &out));
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(record.ts()),
            std::bit_cast<std::uint64_t>(out.ts()));
  EXPECT_EQ(nl::format_record(record), nl::format_record(out));
}

TEST(ClusterWire, SelectRoundTripPreservesTheWholeTree) {
  auto select =
      db::Select{"jobstate", "js"}
          .columns({"js.state", "job.exec_job_id"})
          .join("job_instance", "js.job_instance_id", "job_instance_id")
          .left_join("job", "job_instance.job_id", "job_id")
          .where(db::and_(
              db::eq("js.state", Value{"EXECUTE"}),
              db::or_(db::gt("js.timestamp", Value{10.5}),
                      db::is_null("job.exec_job_id"))))
          .group_by({"js.state"})
          .count_all("n")
          .agg(db::AggFn::kMax, "js.timestamp", "last")
          .order_by("n", /*descending=*/true)
          .limit(17);
  select.distinct();

  std::string buf;
  cluster::encode_select(buf, select);
  net::PayloadReader reader{buf};
  db::Select out{""};
  ASSERT_TRUE(cluster::decode_select(reader, &out));
  EXPECT_TRUE(reader.complete());

  // Re-encoding the decoded tree must reproduce the identical bytes —
  // a full structural equality check in one comparison.
  std::string buf2;
  cluster::encode_select(buf2, out);
  EXPECT_EQ(buf, buf2);
  EXPECT_EQ(out.table(), "jobstate");
  EXPECT_EQ(out.alias(), "js");
  ASSERT_EQ(out.joins().size(), 2u);
  EXPECT_TRUE(out.joins()[1].left_outer);
  ASSERT_EQ(out.aggs().size(), 2u);
  EXPECT_TRUE(out.row_limit().has_value());
  EXPECT_TRUE(out.is_distinct());
}

TEST(ClusterWire, ResultSetRoundTrip) {
  db::ResultSet rs;
  rs.columns = {"a", "b"};
  rs.rows.push_back({Value{std::int64_t{1}}, Value::null()});
  rs.rows.push_back({Value{2.5}, Value{std::string{"x"}}});

  std::string buf;
  cluster::encode_result_set(buf, rs);
  net::PayloadReader reader{buf};
  db::ResultSet out;
  ASSERT_TRUE(cluster::decode_result_set(reader, &out));
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(out.columns, rs.columns);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at(0, "a").as_int(), 1);
  EXPECT_TRUE(out.at(0, "b").is_null());
  EXPECT_EQ(out.at(1, "b").as_text(), "x");
}

TEST(ClusterWire, ApplyRoundTripAndTruncationRejection) {
  std::vector<cluster::ApplyItem> items;
  for (int i = 0; i < 3; ++i) {
    cluster::ApplyItem item;
    item.record = wf_event(wf_uuid(i), 1000.0 + i, ev::kWfPlan);
    item.redelivered = (i == 1);
    item.ack_tag = 100 + static_cast<std::uint64_t>(i);
    items.push_back(std::move(item));
  }
  const std::string bytes = cluster::encode_cluster_apply(7, 2, items);
  net::Frame frame;
  std::size_t used = 0;
  ASSERT_EQ(net::decode_frame(bytes, used, frame), net::DecodeStatus::kFrame);
  EXPECT_EQ(used, bytes.size());
  std::uint32_t shard = 0;
  std::vector<cluster::ApplyItem> out;
  ASSERT_TRUE(cluster::parse_cluster_apply(frame, &shard, &out));
  EXPECT_EQ(shard, 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[1].redelivered);
  EXPECT_EQ(out[2].ack_tag, 102u);
  EXPECT_EQ(nl::format_record(out[0].record), nl::format_record(items[0].record));

  // Every truncation of the payload must be rejected, never crash.
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    net::Frame torn = frame;
    torn.payload.resize(cut);
    std::uint32_t s = 0;
    std::vector<cluster::ApplyItem> items_out;
    EXPECT_FALSE(cluster::parse_cluster_apply(torn, &s, &items_out))
        << "cut at " << cut;
  }
}

TEST(ClusterWire, ReplicationAndPromoteFrames) {
  const std::string bytes =
      cluster::encode_cluster_replicate(3, 4096, "I|workflow|I1\n");
  net::Frame frame;
  std::size_t used = 0;
  ASSERT_EQ(net::decode_frame(bytes, used, frame), net::DecodeStatus::kFrame);
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::string wal;
  ASSERT_TRUE(cluster::parse_cluster_replicate(frame, &shard, &offset, &wal));
  EXPECT_EQ(shard, 3u);
  EXPECT_EQ(offset, 4096u);
  EXPECT_EQ(wal, "I|workflow|I1\n");

  const std::string ok = cluster::encode_cluster_promote_ok(
      9, {{.shard = 1, .recovered_ops = 42, .truncated_records = 1}});
  net::Frame ok_frame;
  ASSERT_EQ(net::decode_frame(ok, used, ok_frame), net::DecodeStatus::kFrame);
  std::vector<cluster::PromoteResult> results;
  ASSERT_TRUE(cluster::parse_cluster_promote_ok(ok_frame, &results));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].recovered_ops, 42u);
  EXPECT_EQ(results[0].truncated_records, 1u);
}

// ---------------------------------------------------------------------------
// Shard map + routing hash

TEST(ClusterShardMap, ParsesPlacementsAndFollowers) {
  const auto map = cluster::ShardMap::parse(
      "0,2@127.0.0.1:7401/127.0.0.1:7411;1,3@hostb:7402");
  EXPECT_EQ(map.total_shards(), 4u);
  ASSERT_EQ(map.placements().size(), 2u);
  EXPECT_EQ(map.placements()[0].primary.port, 7401);
  ASSERT_TRUE(map.placements()[0].follower.has_value());
  EXPECT_EQ(map.placements()[0].follower->port, 7411);
  EXPECT_FALSE(map.placements()[1].follower.has_value());
  EXPECT_EQ(map.placements()[1].primary.host, "hostb");
  EXPECT_EQ(map.placement_of(0), 0u);
  EXPECT_EQ(map.placement_of(1), 1u);
  EXPECT_EQ(map.placement_of(2), 0u);
}

TEST(ClusterShardMap, RejectsGapsDuplicatesAndBadAddresses) {
  EXPECT_THROW(cluster::ShardMap::parse(""), cluster::ClusterError);
  // Shard 1 missing.
  EXPECT_THROW(cluster::ShardMap::parse("0,2@h:1"), cluster::ClusterError);
  // Shard 0 twice.
  EXPECT_THROW(cluster::ShardMap::parse("0@h:1;0,1@h:2"),
               cluster::ClusterError);
  EXPECT_THROW(cluster::ShardMap::parse("0@h"), cluster::ClusterError);
  EXPECT_THROW(cluster::ShardMap::parse("0@h:0"), cluster::ClusterError);
  EXPECT_THROW(cluster::ShardMap::parse("0@h:99999"), cluster::ClusterError);
  EXPECT_THROW(cluster::ShardMap::parse("x@h:1"), cluster::ClusterError);
  EXPECT_NO_THROW(cluster::ShardMap::parse("0@h:1"));
}

TEST(ClusterHash, RouterHashAgreesWithLocalPartitioning) {
  // The router's FNV-1a over the routing key must equal the hash
  // db::ShardedDatabase uses locally — byte-identical placement is the
  // foundation of the distributed/local equivalence.
  const std::vector<std::string> keys{
      "", "wf-a", "dddddddd-0000-4000-8000-000000000007",
      std::string(300, 'x')};
  for (const std::string& key : keys) {
    EXPECT_EQ(stampede::common::fnv1a64(key), db::partition_hash(key)) << key;
  }
  db::ShardedDatabase local{4};
  const std::string key = wf_uuid(9).to_string();
  EXPECT_EQ(stampede::common::fnv1a64(key) % 4, local.shard_index_for_key(key));
}

// ---------------------------------------------------------------------------
// ClientLink: bounded, jittered connect retries (no hang on a dead host)

TEST(ClusterLink, ExhaustedRetriesThrowInsteadOfHanging) {
  net::ClientLinkOptions options;
  options.connect_attempts = 3;
  options.backoff_ms = 10;
  options.max_backoff_ms = 40;
  options.jitter_seed = 42;
  const auto before = stampede::telemetry::registry()
                          .counter("stampede_cluster_connect_retries_total")
                          .value();
  const auto start = std::chrono::steady_clock::now();
  // Port 1 on localhost: connection refused immediately.
  EXPECT_THROW(
      net::ClientLink({"127.0.0.1", 1}, net::kClusterMagic, options),
      net::LinkError);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 5.0);  // Bounded: 3 attempts, ≤ ~70ms of backoff.
  EXPECT_GE(stampede::telemetry::registry()
                .counter("stampede_cluster_connect_retries_total")
                .value(),
            before + 2);  // attempts - 1 retries.
}

TEST(ClusterLink, RouterThrowsCleanlyWhenALaterHostIsUnreachable) {
  const auto dir = fresh_dir("stampede_test_cluster_unreachable");
  auto fleet = Fleet::start(dir, {{0}}, 2);
  cluster::RouterOptions options;
  options.link.connect_attempts = 2;
  options.link.backoff_ms = 10;
  // The first placement connects; the second cannot, and the router's
  // unwinding must shut the first link down before its own state dies.
  EXPECT_THROW(
      cluster::Router(cluster::ShardMap::parse(fleet.spec + ";1@127.0.0.1:1"),
                      options),
      net::LinkError);
  for (auto& host : fleet.hosts) host->stop();
}

// ---------------------------------------------------------------------------
// End-to-end: routed ingest matches a local sharded run byte-for-byte

TEST(ClusterIngest, RoutedRunMatchesLocalShardedRunDownToWalBytes) {
  const auto dir = fresh_dir("stampede_test_cluster_ingest");
  constexpr std::size_t kShards = 4;
  const auto events = interleaved(/*workflows=*/6, /*jobs=*/4);

  // Local reference: a 4-shard archive fed by the in-process lanes.
  const std::string local_base = (dir / "local.db").string();
  loader::LoaderStats local_stats;
  {
    auto archive = orm::open_sharded_archive(local_base, kShards);
    loader::ShardedLoader l{*archive};
    for (const auto& e : events) l.process(e);
    l.finish();
    local_stats = l.stats();
  }

  // Distributed: two shard hosts serving two shards each.
  auto fleet = Fleet::start(dir, {{0, 1}, {2, 3}}, kShards);
  {
    cluster::Router router{cluster::ShardMap::parse(fleet.spec)};
    loader::EventSink& sink = router;
    for (const auto& e : events) sink.process(e);
    sink.finish();

    // Scatter-gather over the fleet while it's still up.
    const query::QueryInterface q{router.backend()};
    const auto roots = q.root_workflows();
    EXPECT_EQ(roots.size(), 6u);
    // Remote stat sums must match the local reference run exactly: the
    // hosts saw every event we sent and loaded the same subset the
    // in-process lanes did.
    loader::LoaderStats remote;
    for (std::size_t s = 0; s < kShards; ++s) {
      remote.merge(router.remote_stats(s).loader);
    }
    EXPECT_EQ(remote.events_seen, events.size());
    EXPECT_EQ(remote.events_seen, local_stats.events_seen);
    EXPECT_EQ(remote.events_loaded, local_stats.events_loaded);
    EXPECT_EQ(remote.events_unknown, local_stats.events_unknown);
    EXPECT_EQ(remote.events_deferred, local_stats.events_deferred);
  }
  for (auto& host : fleet.hosts) host->stop();

  // The WAL files the fleet wrote must be byte-identical to the local
  // run's — same routing, same strided PKs, same commit batching.
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto local =
        db::ShardedDatabase::shard_wal_path(local_base, s, kShards);
    const std::string host_base =
        (dir / ("host" + std::to_string(s / 2) + ".db")).string();
    const auto remote =
        db::ShardedDatabase::shard_wal_path(host_base, s, kShards);
    EXPECT_EQ(slurp(local), slurp(remote)) << "shard " << s;
    EXPECT_FALSE(slurp(local).empty()) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// DART workload over a multi-host fleet: statistics byte-identical to
// in-process 1-shard and 4-shard runs (the acceptance bar).

TEST(ClusterDart, MultiHostStatisticsByteIdenticalToLocalRuns) {
  const auto dir = fresh_dir("stampede_test_cluster_dart");
  const auto log_path = dir / "dart.bp";
  dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.tones_per_task = 2;
  db::Database live;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  options.retain_log_path = log_path.string();
  const auto result = dart::run_dart_experiment(config, live, options);
  ASSERT_EQ(result.status, 0);

  // Local renders at 1 and 4 shards.
  std::string local_render[2];
  const std::size_t shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    db::ShardedDatabase archive{shard_counts[i]};
    orm::create_stampede_schema(archive);
    loader::ShardedLoader l{archive};
    ASSERT_EQ(loader::load_file(log_path.string(), l).parse_errors, 0u);
    const auto root = l.wf_id(result.root_uuid);
    ASSERT_TRUE(root.has_value());
    const query::QueryInterface q{archive};
    local_render[i] = render_statistics(q, *root);
  }
  ASSERT_EQ(local_render[0], local_render[1]);
  ASSERT_FALSE(local_render[0].empty());

  // Distributed render: router + two shard hosts over TCP.
  auto fleet = Fleet::start(dir, {{0, 1}, {2, 3}}, 4);
  std::string remote_render;
  {
    cluster::Router router{cluster::ShardMap::parse(fleet.spec)};
    loader::EventSink& sink = router;
    const auto stats = loader::load_file(log_path.string(), sink);
    EXPECT_EQ(stats.parse_errors, 0u);
    const query::QueryInterface q{router.backend()};
    const auto root = q.workflow_by_uuid(result.root_uuid.to_string());
    ASSERT_TRUE(root.has_value());
    remote_render = render_statistics(q, root->wf_id);
  }
  for (auto& host : fleet.hosts) host->stop();
  EXPECT_EQ(local_render[0], remote_render);
}

// ---------------------------------------------------------------------------
// Failover: primary killed mid-ingest; the follower's replicated WAL
// (with a torn trailing record) takes over; statistics stay identical.

TEST(ClusterFailover, KilledPrimaryFailsOverToFollowerByteIdentical) {
  const auto dir = fresh_dir("stampede_test_cluster_failover");
  const auto log_path = dir / "dart.bp";
  dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.tones_per_task = 2;
  db::Database live;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  options.retain_log_path = log_path.string();
  const auto result = dart::run_dart_experiment(config, live, options);
  ASSERT_EQ(result.status, 0);

  // Parse the retained log up front so the kill lands mid-stream.
  std::vector<nl::LogRecord> records;
  {
    std::ifstream in{log_path};
    nl::StreamParser parser{in};
    while (auto r = parser.next()) records.push_back(std::move(*r));
  }
  ASSERT_GT(records.size(), 100u);

  // DART workflow uuids are random, so nothing guarantees the post-kill
  // half of the stream touches placement 0. Append one synthetic
  // workflow per placement-0 shard (uuids chosen to hash there): the
  // tail of the stream then always drives traffic at the dead primary,
  // forcing the failover during ingest rather than at query time.
  for (const std::size_t want_shard : {std::size_t{0}, std::size_t{1}}) {
    int i = 1000;
    while (stampede::common::fnv1a64(wf_uuid(i).to_string()) % 4 !=
           want_shard) {
      ++i;
    }
    for (auto& r : synthetic_workflow(wf_uuid(i), 2)) {
      records.push_back(std::move(r));
    }
  }

  // Local 4-shard reference render over the exact same stream.
  std::string local_render;
  std::int64_t local_jobstates = 0;
  {
    db::ShardedDatabase archive{4};
    orm::create_stampede_schema(archive);
    loader::ShardedLoader l{archive};
    for (const auto& r : records) l.process(r);
    l.finish();
    const auto root = l.wf_id(result.root_uuid);
    ASSERT_TRUE(root.has_value());
    const query::QueryInterface q{archive};
    local_render = render_statistics(q, *root);
    local_jobstates =
        static_cast<std::int64_t>(archive.row_count("jobstate"));
  }

  // Placement 0 (shards 0,1) gets a follower; placement 1 has none.
  auto fleet = Fleet::start(dir, {{0, 1}, {2, 3}}, 4, {true, false});
  const auto failovers_before = stampede::telemetry::registry()
                                    .counter("stampede_cluster_failovers_total")
                                    .value();
  {
    cluster::Router router{cluster::ShardMap::parse(fleet.spec)};
    loader::EventSink& sink = router;
    const std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i) sink.process(records[i]);

    // Crash the primary of placement 0: uncommitted batches vanish, the
    // router must promote the follower and replay every un-acked event.
    fleet.active(0, 2).kill();
    // A torn trailing record in the replicated WAL — what a crash
    // mid-append leaves — must be tolerated on promotion.
    const std::string replica_wal = db::ShardedDatabase::shard_wal_path(
        (dir / "follower0.db").string(), 0, 4);
    {
      std::ofstream torn{replica_wal, std::ios::app | std::ios::binary};
      torn << "I|workflow|!torn";  // No newline, bad value tag.
    }

    for (std::size_t i = half; i < records.size(); ++i) {
      sink.process(records[i]);
    }
    sink.finish();

    const auto status = router.status();
    ASSERT_EQ(status.size(), 2u);
    EXPECT_TRUE(status[0].failed_over);
    EXPECT_FALSE(status[1].failed_over);
    EXPECT_GE(stampede::telemetry::registry()
                  .counter("stampede_cluster_failovers_total")
                  .value(),
              failovers_before + 1);

    // Promotion tolerated the torn trailing record and reported it.
    std::uint64_t torn_seen = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      torn_seen += router.remote_stats(s).wal_truncated;
    }
    EXPECT_GE(torn_seen, 1u);

    const query::QueryInterface q{router.backend()};
    const auto root = q.workflow_by_uuid(result.root_uuid.to_string());
    ASSERT_TRUE(root.has_value());
    EXPECT_EQ(render_statistics(q, root->wf_id), local_render);
    const auto rs = q.executor().execute(
        db::Select{"jobstate"}.count_all("n"));
    EXPECT_EQ(rs->at(0, "n").as_int(), local_jobstates);
  }
  for (auto& host : fleet.hosts) host->stop();
}

TEST(ClusterFailover, MidFileReplicaCorruptionRefusesPromotion) {
  const auto dir = fresh_dir("stampede_test_cluster_corrupt");
  cluster::ShardHostOptions fo;
  fo.wal_base = (dir / "replica.db").string();
  fo.total_shards = 1;
  fo.follower = true;
  cluster::ShardHost follower{fo};
  follower.start();

  net::ClientLink link{{"127.0.0.1", follower.port()}, net::kClusterMagic};
  link.start([](const net::Frame&) {}, [] {});
  // Corruption in the *middle* of the replicated WAL — not a torn tail,
  // so promotion must refuse rather than silently drop committed data.
  ASSERT_TRUE(link.send(cluster::encode_cluster_replicate(
      0, 0, "I|workflow|!corrupt\nI|workflow|!also-bad\n")));
  const auto channel = link.next_channel();
  EXPECT_THROW(
      {
        const auto reply = link.request(
            channel, cluster::encode_cluster_promote(channel, {0}));
        (void)reply;
      },
      net::LinkError);
  EXPECT_FALSE(follower.promoted());
  link.close();
  follower.stop();
}

TEST(ClusterFailover, FollowerAcksOnlyReplicatedBytesItStored) {
  // Acks the follower sends for `bytes` replicated at offset 0 to a
  // fresh follower whose WAL base is `wal_base`.
  const auto replicate_ack = [](const std::filesystem::path& wal_base) {
    cluster::ShardHostOptions fo;
    fo.wal_base = wal_base.string();
    fo.total_shards = 1;
    fo.follower = true;
    cluster::ShardHost follower{fo};
    follower.start();
    std::promise<std::uint64_t> acked;
    net::ClientLink link{{"127.0.0.1", follower.port()}, net::kClusterMagic};
    link.start(
        [&](const net::Frame& frame) {
          std::uint32_t shard = 0;
          std::uint64_t offset = 0;
          if (frame.type == net::FrameType::kClusterReplicateAck &&
              cluster::parse_cluster_replicate_ack(frame, &shard, &offset)) {
            acked.set_value(offset);
          }
        },
        [] {});
    EXPECT_TRUE(link.send(cluster::encode_cluster_replicate(0, 0, "abc")));
    auto future = acked.get_future();
    EXPECT_EQ(future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    const std::uint64_t offset = future.get();
    link.close();
    follower.stop();
    return offset;
  };
  const auto dir = fresh_dir("stampede_test_cluster_follower_ack");
  EXPECT_EQ(replicate_ack(dir / "replica.db"), 3u);
  // The WAL cannot be opened: nothing is stored, so nothing is acked.
  EXPECT_EQ(replicate_ack(dir / "missing" / "replica.db"), 0u);
}

// ---------------------------------------------------------------------------
// Handshake: a shard host serves only the cluster magic at this version

namespace {

/// Sends one HELLO with `payload` to a shard host on `port`; returns
/// the reply frame type and whether the host then closed.
net::FrameType hello_reply(int port, const std::string& payload,
                           bool* closed) {
  namespace common = stampede::common;
  auto fd = common::connect_tcp("127.0.0.1", port);
  const auto hello =
      net::encode_frame(net::Frame{net::FrameType::kHello, 1, payload});
  if (!fd.valid() || !common::send_all(fd.get(), hello.data(), hello.size())) {
    return net::FrameType::kHeartbeat;
  }
  std::string buffer;
  char chunk[256];
  net::Frame reply;
  for (;;) {
    std::size_t consumed = 0;
    if (net::decode_frame(buffer, consumed, reply) ==
        net::DecodeStatus::kFrame) {
      buffer.erase(0, consumed);
      break;
    }
    std::size_t got = 0;
    if (common::recv_some(fd.get(), chunk, sizeof chunk, 5000, &got) !=
        common::RecvStatus::kData) {
      return net::FrameType::kHeartbeat;
    }
    buffer.append(chunk, got);
  }
  std::size_t got = 0;
  *closed = buffer.empty() &&
            common::recv_some(fd.get(), chunk, sizeof chunk, 5000, &got) ==
                common::RecvStatus::kClosed;
  return reply.type;
}

}  // namespace

TEST(ClusterHandshake, BusMagicIsRefusedByShardHost) {
  const auto dir = fresh_dir("stampede_test_cluster_bus_magic");
  cluster::ShardHostOptions options;
  options.wal_base = (dir / "host.db").string();
  options.follower = true;
  cluster::ShardHost host{options};
  host.start();
  net::ClientLinkOptions link_options;
  link_options.request_timeout_ms = 2000;
  EXPECT_THROW(net::ClientLink({"127.0.0.1", host.port()}, net::kBusMagic,
                               link_options),
               net::LinkError);
  host.stop();
}

TEST(ClusterHandshake, VersionOneHelloIsRefusedAndClosed) {
  const auto dir = fresh_dir("stampede_test_cluster_v1_hello");
  cluster::ShardHostOptions options;
  options.wal_base = (dir / "host.db").string();
  options.follower = true;
  cluster::ShardHost host{options};
  host.start();
  // A version-1 cluster link sent the bus magic, version 1 and its
  // feature bitmap; a plain version-1 HELLO under today's magic is
  // refused as well.
  std::string v1_link{net::kBusMagic};
  net::put_u16(v1_link, 1);
  net::put_u32(v1_link, 7);
  std::string v1_cluster{net::kClusterMagic};
  net::put_u16(v1_cluster, 1);
  for (const auto& payload : {v1_link, v1_cluster}) {
    bool closed = false;
    EXPECT_EQ(hello_reply(host.port(), payload, &closed),
              net::FrameType::kError);
    EXPECT_TRUE(closed);
  }
  host.stop();
}

// ---------------------------------------------------------------------------
// HTTP visibility: /clusterz and the cluster-aware /readyz

TEST(ClusterHttp, ClusterzAndReadyzReportFleetConnectivity) {
  const auto dir = fresh_dir("stampede_test_cluster_http");
  auto fleet = Fleet::start(dir, {{0}, {1}}, 2);
  cluster::Router router{cluster::ShardMap::parse(fleet.spec)};

  dash::HttpServer server{0};
  cluster::register_cluster_routes(server, router);
  server.start();

  int status = 0;
  const auto ready = dash::http_get(server.port(), "/readyz", &status);
  EXPECT_EQ(status, 200) << ready;
  const auto clusterz = dash::http_get(server.port(), "/clusterz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(clusterz.find("\"total_shards\":2"), std::string::npos)
      << clusterz;
  EXPECT_NE(clusterz.find("\"placements\""), std::string::npos);
  EXPECT_NE(clusterz.find("\"connected\":true"), std::string::npos);

  // Kill one host (no follower): the router is no longer ready.
  fleet.hosts[1]->kill();
  // The link notices EOF on its reader thread; poll briefly.
  for (int i = 0; i < 100 && router.all_connected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(router.all_connected());
  const auto not_ready = dash::http_get(server.port(), "/readyz", &status);
  EXPECT_EQ(status, 503) << not_ready;

  server.stop();
  fleet.hosts[0]->stop();
}

// ---------------------------------------------------------------------------
// Bus integration: QueuePump drains into the router, acks release only
// after the remote commit.

TEST(ClusterPump, QueuePumpOverRouterAcksAfterRemoteCommit) {
  const auto dir = fresh_dir("stampede_test_cluster_pump");
  auto fleet = Fleet::start(dir, {{0, 1}}, 2);
  cluster::Router router{cluster::ShardMap::parse(fleet.spec)};

  stampede::bus::Broker broker;
  broker.declare_queue("stampede", {.durable = false});
  stampede::bus::BpPublisher publisher{broker, "monitoring"};
  broker.bind("stampede", "monitoring", "stampede.#");

  loader::QueuePump pump{broker, "stampede",
                         static_cast<loader::EventSink&>(router)};
  pump.start();
  const auto events = synthetic_workflow(wf_uuid(50), 3);
  for (const auto& e : events) publisher.publish(e);
  ASSERT_TRUE(pump.wait_until_drained(15000));
  pump.stop();

  EXPECT_EQ(pump.stats().messages, events.size());
  EXPECT_EQ(broker.queue_stats("stampede").unacked, 0u);
  const query::QueryInterface q{router.backend()};
  EXPECT_TRUE(q.workflow_by_uuid(wf_uuid(50).to_string()).has_value());
  for (auto& host : fleet.hosts) host->stop();
}

TEST(ClusterPump, FinishReturnsOnlyAfterEveryAckCallbackRan) {
  const auto dir = fresh_dir("stampede_test_cluster_finish_acks");
  auto fleet = Fleet::start(dir, {{0, 1}}, 2);
  const auto events = synthetic_workflow(wf_uuid(60), 3);
  std::mutex mutex;
  std::vector<std::uint64_t> recorded;
  {
    cluster::Router router{cluster::ShardMap::parse(fleet.spec)};
    router.set_ack_callback([&](std::uint64_t tag) {
      // Slow on purpose: the drain must wait for the callbacks, not
      // just for the in-flight window to empty.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::scoped_lock lock{mutex};
      recorded.push_back(tag);
    });
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_TRUE(router.process(events[i], nullptr, false, i + 1));
    }
    router.finish();
    std::vector<std::uint64_t> seen;
    {
      const std::scoped_lock lock{mutex};
      seen = recorded;
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), events.size());
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
  }
  for (auto& host : fleet.hosts) host->stop();
}
