// Tests for the networked message bus (src/net): frame codec
// round-trips (including a property test over arbitrary-byte headers),
// loopback BusServer/BusClient publish→consume→ack, reconnect after a
// server restart, the disconnect→nack→DLQ path, and a two-endpoint
// DART run whose TCP-built archive renders byte-identical
// stampede_statistics to the in-process pipeline.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "dart/experiment.hpp"
#include "db/sharded_database.hpp"
#include "loader/nl_load.hpp"
#include "loader/sharded_loader.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "net/frame.hpp"
#include "orm/stampede_tables.hpp"
#include "query/query_interface.hpp"
#include "query/statistics.hpp"

namespace bus = stampede::bus;
namespace net = stampede::net;
namespace db = stampede::db;
namespace dart = stampede::dart;
namespace loader = stampede::loader;
namespace query = stampede::query;
using stampede::common::BusError;

namespace {

/// Decodes exactly one frame out of an encoded byte string.
net::Frame decode_one(const std::string& bytes) {
  net::Frame frame;
  std::size_t consumed = 0;
  const auto status = net::decode_frame(bytes, consumed, frame);
  EXPECT_EQ(status, net::DecodeStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

net::BusClientOptions client_options(int port) {
  net::BusClientOptions options;
  options.port = port;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame codec

TEST(NetFrame, HandshakeAndControlFramesRoundTrip) {
  const auto hello = decode_one(net::encode_hello(7, net::kBusMagic));
  EXPECT_EQ(hello.type, net::FrameType::kHello);
  EXPECT_EQ(hello.channel, 7u);

  bool accepted = false;
  const auto ok = decode_one(net::answer_hello(hello, net::kBusMagic,
                                               &accepted));
  EXPECT_TRUE(accepted);
  EXPECT_EQ(ok.type, net::FrameType::kHelloOk);
  EXPECT_EQ(ok.channel, 7u);
  std::uint16_t version = 0;
  ASSERT_TRUE(net::parse_hello_ok(ok, &version));
  EXPECT_EQ(version, net::kProtocolVersion);

  // Another service's magic is answered with an error.
  const auto refused = decode_one(net::answer_hello(hello, net::kClusterMagic,
                                                    &accepted));
  EXPECT_FALSE(accepted);
  EXPECT_EQ(refused.type, net::FrameType::kError);

  EXPECT_EQ(decode_one(net::encode_ok(3)).channel, 3u);
  EXPECT_EQ(decode_one(net::encode_heartbeat()).type,
            net::FrameType::kHeartbeat);
}

TEST(NetFrame, PublishRoundTripsEveryMessageField) {
  bus::Message message;
  message.routing_key = "stampede.job_inst.main.end";
  message.body = "ts=2012-06-16T10:00:00.000001Z event=x level=Info";
  message.headers["content-type"] = "application/x-netlogger";
  message.headers["x-death-count"] = "2";
  message.published_at = 1339840800.25;
  message.persistent = true;
  message.redeliveries = 3;
  message.trace_ctx.trace_hi = 0x0123456789abcdefULL;
  message.trace_ctx.trace_lo = 0xfedcba9876543210ULL;
  message.trace_ctx.span_id = 42;
  message.trace_ctx.flags = 1;
  message.trace_published_wall = 1339840800.5;
  message.trace_enqueued_wall = 1339840800.75;
  message.trace_spooled_wall = 1339840801.0;

  const auto frame =
      decode_one(net::encode_publish(11, {{"monitoring", message}}));
  EXPECT_EQ(frame.type, net::FrameType::kPublish);
  std::vector<net::WirePublish> entries;
  ASSERT_TRUE(net::parse_publish(frame, &entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].exchange, "monitoring");
  const bus::Message& out = entries[0].message;
  EXPECT_EQ(out.routing_key, message.routing_key);
  EXPECT_EQ(out.body, message.body);
  EXPECT_EQ(out.headers, message.headers);
  EXPECT_EQ(out.published_at, message.published_at);
  EXPECT_EQ(out.persistent, message.persistent);
  EXPECT_EQ(out.redeliveries, message.redeliveries);
  EXPECT_EQ(out.trace_ctx, message.trace_ctx);
  EXPECT_EQ(out.trace_published_wall, message.trace_published_wall);
  EXPECT_EQ(out.trace_enqueued_wall, message.trace_enqueued_wall);
  EXPECT_EQ(out.trace_spooled_wall, message.trace_spooled_wall);
}

// Property test: headers and bodies are length-prefixed raw bytes, so
// every byte value — NULs, newlines, quotes, separators that would need
// escaping in a text protocol — must survive the round trip.
TEST(NetFrame, PropertyArbitraryBytesRoundTrip) {
  stampede::common::Rng rng{20260805};
  const std::string nasty[] = {
      std::string{"\0\0\0", 3}, "\r\n\r\n", "a=b,c=\"d\"",
      std::string{"\xff\xfe\x00\x80", 4}, "", "\\\"\\n"};
  for (int iter = 0; iter < 200; ++iter) {
    bus::Message message;
    const auto random_bytes = [&](std::int64_t max_len) {
      std::string s;
      const auto len = rng.uniform_int(0, max_len);
      for (std::int64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
      }
      return s;
    };
    message.routing_key = random_bytes(32);
    message.body = random_bytes(256);
    message.body += nasty[iter % std::size(nasty)];
    const auto header_count = rng.uniform_int(0, 4);
    for (int h = 0; h < header_count; ++h) {
      message.headers[random_bytes(12) + nasty[(iter + h) % std::size(nasty)]] =
          random_bytes(24) + nasty[(iter + h + 1) % std::size(nasty)];
    }
    message.published_at = static_cast<double>(rng.uniform_int(0, 1 << 30));
    message.persistent = (iter % 2) == 0;

    const auto frame = decode_one(net::encode_publish(iter, {{"ex", message}}));
    std::vector<net::WirePublish> entries;
    ASSERT_TRUE(net::parse_publish(frame, &entries));
    ASSERT_EQ(entries.size(), 1u);
    const bus::Message& out = entries[0].message;
    ASSERT_EQ(out.routing_key, message.routing_key);
    ASSERT_EQ(out.body, message.body);
    ASSERT_EQ(out.headers, message.headers);
  }
}

TEST(NetFrame, DecoderHandlesPartialOversizeAndCorruptInput) {
  const auto bytes = net::encode_publish(1, {{"ex", bus::Message{}}});
  // Every proper prefix is "need more", never an error.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    net::Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(net::decode_frame(bytes.substr(0, cut), consumed, frame),
              net::DecodeStatus::kNeedMore);
  }
  // Two frames back to back decode one at a time.
  const auto two = bytes + net::encode_heartbeat();
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(two, consumed, frame), net::DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, net::FrameType::kPublish);
  EXPECT_EQ(consumed, bytes.size());

  // A length beyond kMaxFrameBytes is a corrupt stream.
  std::string oversize;
  net::put_u32(oversize, static_cast<std::uint32_t>(net::kMaxFrameBytes + 1));
  oversize.append(8, '\0');
  std::string error;
  EXPECT_EQ(net::decode_frame(oversize, consumed, frame, &error),
            net::DecodeStatus::kError);
  EXPECT_FALSE(error.empty());

  // An unknown frame type too, on either side of the contiguous range.
  const auto last = static_cast<int>(net::FrameType::kClusterStatsOk);
  for (const int type : {0, last + 1, 99}) {
    std::string bad_type;
    net::put_u32(bad_type, 5);
    net::put_u8(bad_type, static_cast<std::uint8_t>(type));
    net::put_u32(bad_type, 0);
    EXPECT_EQ(net::decode_frame(bad_type, consumed, frame),
              net::DecodeStatus::kError)
        << "type " << type;
  }

  // A truncated string inside a payload fails the parse, not the frame
  // decoder.
  net::Frame torn;
  torn.type = net::FrameType::kBind;
  net::put_u32(torn.payload, 1000);  // Claims 1000 bytes, has none.
  std::string q, e, k;
  EXPECT_FALSE(net::parse_bind(torn, &q, &e, &k));
}

TEST(NetFrame, QueueStatsRoundTrip) {
  bus::QueueStats stats;
  stats.enqueued = 10;
  stats.delivered = 9;
  stats.acked = 8;
  stats.requeued = 3;
  stats.redelivered = 2;
  stats.dead_lettered = 1;
  stats.dropped_overflow = 4;
  stats.depth = 5;
  stats.unacked = 6;
  const auto frame = decode_one(net::encode_queue_stats_ok(2, stats));
  bus::QueueStats out;
  ASSERT_TRUE(net::parse_queue_stats_ok(frame, &out));
  EXPECT_EQ(out.enqueued, stats.enqueued);
  EXPECT_EQ(out.acked, stats.acked);
  EXPECT_EQ(out.dead_lettered, stats.dead_lettered);
  EXPECT_EQ(out.depth, stats.depth);
  EXPECT_EQ(out.unacked, stats.unacked);
}

// ---------------------------------------------------------------------------
// Loopback server/client

TEST(NetBus, PublishConsumeAckOverLoopback) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();

  net::BusClient client{client_options(server.port())};
  ASSERT_TRUE(client.wait_connected(5000));

  client.declare_exchange("monitoring", bus::ExchangeType::kTopic);
  client.declare_queue("stampede");
  client.bind("stampede", "monitoring", "stampede.#");

  for (int i = 0; i < 50; ++i) {
    bus::Message message;
    message.routing_key = "stampede.job.n" + std::to_string(i);
    message.body = "line " + std::to_string(i);
    EXPECT_EQ(client.publish("monitoring", std::move(message)), 1u);
  }

  for (int i = 0; i < 50; ++i) {
    auto delivery = client.basic_get("stampede", "t", 5000);
    ASSERT_TRUE(delivery.has_value()) << "message " << i;
    EXPECT_EQ(delivery->message().body, "line " + std::to_string(i));
    EXPECT_FALSE(delivery->redelivered);
    EXPECT_TRUE(client.ack("stampede", delivery->delivery_tag));
  }

  // Acks are fire-and-forget; poll the remote stats until they land.
  for (int spin = 0; spin < 100; ++spin) {
    if (client.queue_stats("stampede").acked == 50) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto stats = client.queue_stats("stampede");
  EXPECT_EQ(stats.enqueued, 50u);
  EXPECT_EQ(stats.acked, 50u);
  EXPECT_EQ(stats.depth, 0u);
  EXPECT_EQ(stats.unacked, 0u);

  // Broker-side errors surface as BusError through the wire.
  EXPECT_THROW(client.queue_stats("no-such-queue"), BusError);
  EXPECT_THROW(client.declare_exchange("monitoring",
                                       bus::ExchangeType::kDirect),
               BusError);
  client.close();
  server.stop();
}

TEST(NetBus, ReconnectAfterServerRestartResubscribesAndRedelivers) {
  bus::Broker broker;
  auto server = std::make_unique<net::BusServer>(broker);
  server->start();
  const int port = server->port();

  net::BusClient client{client_options(port)};
  ASSERT_TRUE(client.wait_connected(5000));
  client.declare_queue("q");
  bus::Message message;
  message.routing_key = "q";
  message.body = "survives the restart";
  client.publish("", std::move(message));

  auto first = client.basic_get("q", "t", 5000);
  ASSERT_TRUE(first.has_value());
  const auto stale_tag = first->delivery_tag;
  const auto epoch_before = client.connection_epoch();

  // Kill the server with the delivery un-acked: the dropped connection
  // nacks it back onto the broker.
  server->stop();
  server = std::make_unique<net::BusServer>(
      broker, net::BusServerOptions{.port = port});
  server->start();

  // The client reconnects on its own and re-issues the CONSUME; the
  // nacked message comes back flagged as a redelivery.
  auto again = client.basic_get("q", "t", 10'000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->message().body, "survives the restart");
  EXPECT_TRUE(again->redelivered);
  EXPECT_GT(client.connection_epoch(), epoch_before);

  // The pre-restart tag is from a dead connection: acking it is refused
  // client-side instead of corrupting the new delivery numbering.
  EXPECT_FALSE(client.ack("q", stale_tag));
  EXPECT_TRUE(client.ack("q", again->delivery_tag));
  for (int spin = 0; spin < 100; ++spin) {
    if (client.queue_stats("q").acked == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(client.queue_stats("q").acked, 1u);
  client.close();
  server->stop();
}

TEST(NetBus, KilledConnectionsWalkTheMessageToTheDlq) {
  bus::Broker broker;
  broker.declare_queue("dlq");
  bus::QueueOptions options;
  options.max_redeliveries = 1;
  options.dead_letter_queue = "dlq";
  broker.declare_queue("doomed", options);

  net::BusServer server{broker};
  server.start();

  bus::Message message;
  message.routing_key = "doomed";
  message.body = "poison";
  broker.publish("", std::move(message));

  // Two consumers take the delivery and die without acking; the second
  // failure exhausts max_redeliveries and dead-letters the message.
  for (int round = 0; round < 2; ++round) {
    net::BusClient victim{client_options(server.port())};
    ASSERT_TRUE(victim.wait_connected(5000));
    auto delivery = victim.basic_get("doomed", "t", 5000);
    ASSERT_TRUE(delivery.has_value());
    EXPECT_EQ(delivery->message().body, "poison");
    victim.close();  // Dropped connection → server nacks in-flight.
  }

  net::BusClient reader{client_options(server.port())};
  ASSERT_TRUE(reader.wait_connected(5000));
  auto dead = reader.basic_get("dlq", "t", 10'000);
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->message().body, "poison");
  EXPECT_TRUE(reader.ack("dlq", dead->delivery_tag));
  for (int spin = 0; spin < 100; ++spin) {
    if (broker.queue_stats("doomed").dead_lettered == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(broker.queue_stats("doomed").dead_lettered, 1u);
  EXPECT_EQ(broker.queue_stats("doomed").depth, 0u);
  reader.close();
  server.stop();
}

// ---------------------------------------------------------------------------
// Two-endpoint DART run: byte-identical statistics over TCP

TEST(NetDart, TcpPipelineStatisticsMatchInProcess) {
  dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.tones_per_task = 2;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;

  // Reference: the classic single-process pipeline (engine → in-process
  // broker → pump → archive), plus a retained log for the sharded
  // references.
  const auto log_path = std::filesystem::temp_directory_path() /
                        "stampede_test_net_dart.bp";
  std::filesystem::remove(log_path);
  options.retain_log_path = log_path.string();
  db::Database live;
  const auto reference = dart::run_dart_experiment(config, live, options);
  ASSERT_EQ(reference.status, 0);
  options.retain_log_path.clear();

  const auto render = [&](const auto& archive, std::int64_t root) {
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
    text += query::StampedeStatistics::render_host_usage(
        stats.host_usage(root));
    return text;
  };
  ASSERT_TRUE(reference.root_wf_id != 0);
  const std::string reference_render = render(live, reference.root_wf_id);
  ASSERT_FALSE(reference_render.empty());

  // TCP deployment, 1-shard and 4-shard consumers: producer endpoint is
  // a BusClient running the same deterministic workload; consumer
  // endpoint is another BusClient pumping the queue into a sharded
  // archive. (Two endpoints in one process over real loopback TCP — the
  // multi-process topology with the fork removed.)
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    bus::Broker broker;
    net::BusServer server{broker};
    server.start();

    db::ShardedDatabase archive{shards};
    stampede::orm::create_stampede_schema(archive);
    loader::ShardedLoader sharded{archive};
    net::BusClient consumer{client_options(server.port())};
    ASSERT_TRUE(consumer.wait_connected(5000));
    loader::QueuePump pump{consumer, "stampede", sharded};

    net::BusClient producer{client_options(server.port())};
    ASSERT_TRUE(producer.wait_connected(5000));
    // Producer declares the topology (exchange, queue, binding) over
    // the wire before any event flows, then starts pumping.
    const auto published = dart::run_dart_publish(config, producer, options);
    ASSERT_EQ(published.status, 0);
    ASSERT_EQ(published.root_uuid, reference.root_uuid);
    pump.start();

    ASSERT_TRUE(pump.wait_until_drained(60'000));
    pump.stop();
    EXPECT_EQ(pump.stats().messages, published.published);
    EXPECT_EQ(pump.stats().parse_errors, 0u);

    const auto root = sharded.wf_id(published.root_uuid);
    ASSERT_TRUE(root.has_value());
    // The acceptance bar: the archive built over TCP renders the exact
    // bytes the in-process pipeline rendered.
    EXPECT_EQ(render(archive, *root), reference_render)
        << "shards=" << shards;

    producer.close();
    consumer.close();
    server.stop();
  }
  std::filesystem::remove(log_path);
}
