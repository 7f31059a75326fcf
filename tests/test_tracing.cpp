// Tests for distributed tracing (DESIGN.md §11): traceparent codec,
// head-based sampling, always-recorded error spans, trace survival
// across broker restart + spool replay and nack redelivery, context
// propagation over TCP, waterfall reconstruction at the loader's commit
// hook, the self-amplification guard, the /tracez + /trace/{id} +
// /healthz + /readyz endpoints, and the Prometheus exposition of a
// stampede histogram.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "bus/bp_publisher.hpp"
#include "bus/broker.hpp"
#include "dashboard/http_server.hpp"
#include "dashboard/trace_routes.hpp"
#include "loader/nl_load.hpp"
#include "loader/stampede_loader.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "netlogger/events.hpp"
#include "orm/stampede_tables.hpp"
#include "query/query_executor.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace fs = std::filesystem;
namespace bus = stampede::bus;
namespace net = stampede::net;
namespace db = stampede::db;
namespace dash = stampede::dash;
namespace nl = stampede::nl;
namespace ev = stampede::nl::events;
namespace attr = stampede::nl::events::attr;
namespace loader = stampede::loader;
namespace telemetry = stampede::telemetry;
using stampede::common::Uuid;
using telemetry::TraceContext;

namespace {

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

/// Pins the process tracer to `rate` for one test and clears the span
/// ring so each test observes only its own spans; restores the previous
/// rate (and clears again) on the way out. The tracer is a process
/// singleton, so every test that touches sampling must scope itself.
struct RateGuard {
  explicit RateGuard(double rate)
      : previous(telemetry::Tracer::instance().sample_rate()) {
    telemetry::Tracer::instance().set_sample_rate(rate);
    telemetry::Tracer::instance().sink().clear();
  }
  ~RateGuard() {
    telemetry::Tracer::instance().set_sample_rate(previous);
    telemetry::Tracer::instance().sink().clear();
  }
  double previous;
};

bus::Message persistent_msg(std::string key, std::string body) {
  bus::Message m;
  m.routing_key = std::move(key);
  m.body = std::move(body);
  m.persistent = true;
  return m;
}

/// A message carrying a freshly rooted trace, the way BpPublisher
/// stamps one (context + traceparent header + anchored publish wall).
bus::Message traced_msg(std::string key, std::string body,
                        bool persistent = false) {
  auto& tracer = telemetry::Tracer::instance();
  bus::Message m;
  m.routing_key = std::move(key);
  m.body = std::move(body);
  m.persistent = persistent;
  m.trace_published = telemetry::trace_now();
  m.trace_ctx = tracer.start_trace();
  if (m.trace_ctx.valid()) {
    m.trace_published_wall = tracer.wall_at(m.trace_published);
    m.headers["traceparent"] = m.trace_ctx.to_traceparent();
  }
  return m;
}

net::BusClientOptions client_options(int port) {
  net::BusClientOptions options;
  options.port = port;
  return options;
}

const Uuid kWf = *Uuid::parse("7a17e8ac-02ac-4909-b5e3-16e367392556");

/// Minimal valid workflow lifecycle: plan → xwf.start → xwf.end. Enough
/// for the loader to create rows and fire the batch-commit hook.
std::vector<nl::LogRecord> tiny_workflow() {
  std::vector<nl::LogRecord> events;
  nl::LogRecord plan{1000.0, std::string{ev::kWfPlan}};
  plan.set(attr::kXwfId, kWf);
  plan.set(attr::kDaxLabel, std::string{"traced"});
  plan.set(attr::kUser, std::string{"alice"});
  plan.set(attr::kPlanner, std::string{"stampede-cpp-1.0"});
  events.push_back(plan);

  nl::LogRecord start{1001.0, std::string{ev::kXwfStart}};
  start.set(attr::kXwfId, kWf);
  start.set(attr::kRestartCount, std::int64_t{0});
  events.push_back(start);

  nl::LogRecord end{1002.0, std::string{ev::kXwfEnd}};
  end.set(attr::kXwfId, kWf);
  end.set(attr::kRestartCount, std::int64_t{0});
  end.set(attr::kStatus, std::int64_t{0});
  events.push_back(end);
  return events;
}

}  // namespace

// ---------------------------------------------------------------------------
// Traceparent codec

TEST(TraceContext, TraceparentRoundTrips) {
  const TraceContext ctx{0x0123456789abcdefull, 0xfedcba9876543210ull,
                         0xdeadbeefcafef00dull, telemetry::kTraceFlagSampled};
  const std::string text = ctx.to_traceparent();
  EXPECT_EQ(text.size(), 55u);
  EXPECT_EQ(text.substr(0, 3), "00-");
  EXPECT_EQ(text, "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01");

  TraceContext back;
  ASSERT_TRUE(TraceContext::from_traceparent(text, &back));
  EXPECT_EQ(back, ctx);
  EXPECT_TRUE(back.sampled());
  EXPECT_EQ(back.trace_id_hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(back.span_id_hex(), "deadbeefcafef00d");
}

TEST(TraceContext, MalformedTraceparentIsRejectedAndLeavesOutUntouched) {
  const TraceContext sentinel{1, 2, 3, 1};
  const char* bad[] = {
      "",
      "00",
      "01-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01",  // version
      "00-0123456789abcdeffedcba987654321-deadbeefcafef00d-01",   // short id
      "00-0123456789abcdeffedcba9876543210-deadbeefcafef00-01",   // short span
      "00-zz23456789abcdeffedcba9876543210-deadbeefcafef00d-01",  // non-hex
      "00-0123456789abcdeffedcba9876543210_deadbeefcafef00d-01",  // separator
      "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01x",  // trailing
  };
  for (const char* text : bad) {
    TraceContext out = sentinel;
    EXPECT_FALSE(TraceContext::from_traceparent(text, &out)) << text;
    EXPECT_EQ(out, sentinel) << text;
  }
}

// ---------------------------------------------------------------------------
// Sampling

TEST(Tracer, SamplingRateZeroRootsNothing) {
  RateGuard rate{0.0};
  auto& tracer = telemetry::Tracer::instance();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(tracer.start_trace().valid());
    EXPECT_FALSE(tracer.head_sample());
  }
}

TEST(Tracer, SamplingRateOneRootsEverything) {
  RateGuard rate{1.0};
  auto& tracer = telemetry::Tracer::instance();
  for (int i = 0; i < 100; ++i) {
    const auto ctx = tracer.start_trace();
    ASSERT_TRUE(ctx.valid());
    EXPECT_TRUE(ctx.sampled());

    const auto child = tracer.child_of(ctx);
    ASSERT_TRUE(child.valid());
    EXPECT_EQ(child.trace_hi, ctx.trace_hi);
    EXPECT_EQ(child.trace_lo, ctx.trace_lo);
    EXPECT_NE(child.span_id, ctx.span_id);
    EXPECT_TRUE(child.sampled());
  }
  EXPECT_FALSE(tracer.child_of(TraceContext{}).valid());
}

TEST(Tracer, ErrorSpansAreRecordedEvenWhenUnsampled) {
  RateGuard rate{0.0};
  auto& tracer = telemetry::Tracer::instance();
  {
    auto span = telemetry::SpanGuard::root("failing.op");
    span.attr("detail", "unit-test");
    span.set_error();
  }
  const auto errors = tracer.sink().errors(10);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].name, "failing.op");
  EXPECT_TRUE(errors[0].error);
  EXPECT_TRUE(errors[0].context.valid());  // Ids synthesized on the spot.

  // A healthy span at rate 0 records nothing.
  { auto ok = telemetry::SpanGuard::root("healthy.op"); }
  EXPECT_EQ(tracer.sink().errors(10).size(), 1u);
  for (const auto& span : tracer.sink().recent(100)) {
    EXPECT_NE(span.name, "healthy.op");
  }
}

// ---------------------------------------------------------------------------
// Trace survival: spool replay across a broker restart, redelivery

TEST(Tracing, TraceSurvivesBrokerRestartAndSpoolReplay) {
  RateGuard rate{1.0};
  TempDir dir{"stampede_tracing_spool"};
  TraceContext published_ctx;
  {
    bus::Broker broker{dir.path.string()};
    broker.declare_queue("q", {.durable = true});
    auto msg = traced_msg("q", "ts=1331642138 event=stampede.job.info",
                          /*persistent=*/true);
    ASSERT_TRUE(msg.trace_ctx.valid());
    published_ctx = msg.trace_ctx;
    broker.publish("", std::move(msg));
    // Crash before any consumer acks: the spool holds the message.
  }
  bus::Broker broker{dir.path.string()};
  broker.declare_queue("q", {.durable = true});
  const auto d = broker.basic_get("q", "c");
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->message().replayed);
  EXPECT_EQ(d->message().trace_ctx, published_ctx);
  EXPECT_GT(d->message().trace_published_wall, 0.0);
  ASSERT_TRUE(d->message().headers.contains("traceparent"));
  EXPECT_EQ(d->message().headers.at("traceparent"),
            published_ctx.to_traceparent());
  broker.ack("q", d->delivery_tag);
}

TEST(Tracing, NackRequeueRedeliversWithTheSameTraceId) {
  RateGuard rate{1.0};
  bus::Broker broker;
  broker.declare_queue("q", {});
  auto msg = traced_msg("q", "body");
  ASSERT_TRUE(msg.trace_ctx.valid());
  const TraceContext published_ctx = msg.trace_ctx;
  broker.publish("", std::move(msg));

  const auto first = broker.basic_get("q", "c");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->message().trace_ctx, published_ctx);
  ASSERT_TRUE(broker.nack("q", first->delivery_tag, /*requeue=*/true));

  const auto second = broker.basic_get("q", "c");
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->redelivered);
  EXPECT_EQ(second->message().trace_ctx, published_ctx);
  EXPECT_EQ(second->message().redeliveries, 1u);
  broker.ack("q", second->delivery_tag);
}

TEST(NetTrace, ContextPropagatesAcrossTcp) {
  RateGuard rate{1.0};
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();

  net::BusClient producer{client_options(server.port())};
  net::BusClient consumer{client_options(server.port())};
  ASSERT_TRUE(producer.wait_connected(5000));
  ASSERT_TRUE(consumer.wait_connected(5000));
  producer.declare_queue("q", {});

  auto msg = traced_msg("q", "ts=1331642138 event=stampede.job.info");
  ASSERT_TRUE(msg.trace_ctx.valid());
  const TraceContext published_ctx = msg.trace_ctx;
  const double published_wall = msg.trace_published_wall;
  producer.publish("", std::move(msg));

  const auto d = consumer.basic_get("q", "c", /*timeout_ms=*/5000);
  ASSERT_TRUE(d.has_value());
  // The context and its anchored publish stamp crossed two sockets (the
  // TRACE wire suffix both connections negotiated).
  EXPECT_EQ(d->message().trace_ctx, published_ctx);
  EXPECT_DOUBLE_EQ(d->message().trace_published_wall, published_wall);
  ASSERT_TRUE(d->message().headers.contains("traceparent"));
  EXPECT_EQ(d->message().headers.at("traceparent"),
            published_ctx.to_traceparent());
  consumer.ack("q", d->delivery_tag);
}

// ---------------------------------------------------------------------------
// Waterfall reconstruction at the loader's commit hook

TEST(Tracing, LoaderReconstructsTheWaterfallAtCommit) {
  RateGuard rate{1.0};
  auto& tracer = telemetry::Tracer::instance();

  db::Database database;
  stampede::orm::create_stampede_schema(database);
  bus::Broker broker;
  broker.declare_queue("stampede", {});
  bus::BpPublisher publisher{broker, "monitoring"};
  broker.bind("stampede", "monitoring", "stampede.#");

  loader::StampedeLoader l{database};
  loader::QueuePump pump{broker, "stampede", l};
  pump.start();
  for (const auto& e : tiny_workflow()) publisher.publish(e);
  ASSERT_TRUE(pump.wait_until_drained(5000));
  pump.stop();
  ASSERT_EQ(database.row_count("workflow"), 1u);

  // Every published event rooted its own trace; each trace must hold a
  // "pipeline" root plus causally ordered stage spans under it.
  const auto recent = tracer.sink().recent(256);
  std::size_t pipelines = 0;
  for (const auto& root : recent) {
    if (root.name != "pipeline") continue;
    ++pipelines;
    EXPECT_EQ(root.parent_span_id, 0u);
    EXPECT_GT(root.start_wall, 0.0);
    EXPECT_GE(root.duration, 0.0);

    const auto spans =
        tracer.sink().trace(root.context.trace_hi, root.context.trace_lo);
    ASSERT_FALSE(spans.empty());
    // Ascending start order, and the stage sequence is causal: publish
    // begins no later than queue, which begins no later than commit.
    double publish_start = -1, queue_start = -1, commit_start = -1;
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].start_wall, spans[i].start_wall);
    }
    for (const auto& span : spans) {
      EXPECT_EQ(span.context.trace_hi, root.context.trace_hi);
      EXPECT_EQ(span.context.trace_lo, root.context.trace_lo);
      if (span.name == "publish") publish_start = span.start_wall;
      if (span.name == "queue") queue_start = span.start_wall;
      if (span.name == "commit") commit_start = span.start_wall;
      if (span.name == "publish" || span.name == "queue" ||
          span.name == "commit") {
        EXPECT_EQ(span.parent_span_id, root.context.span_id);
      }
    }
    ASSERT_GE(publish_start, 0.0);
    ASSERT_GE(queue_start, 0.0);
    ASSERT_GE(commit_start, 0.0);
    EXPECT_LE(publish_start, queue_start);
    EXPECT_LE(queue_start, commit_start);
  }
  EXPECT_EQ(pipelines, tiny_workflow().size());
}

// ---------------------------------------------------------------------------
// Self-amplification guard

TEST(Tracing, RepublishedTraceEventsAreNeverThemselvesTraced) {
  RateGuard rate{1.0};
  bus::Broker broker;
  broker.declare_queue("spans", {});
  bus::BpPublisher publisher{broker, "monitoring"};
  broker.bind("spans", "monitoring", "stampede.trace.#");

  nl::LogRecord span_event{1000.0, "stampede.trace.span"};
  span_event.set(attr::kXwfId, kWf);
  publisher.publish(span_event);

  const auto d = broker.basic_get("spans", "c");
  ASSERT_TRUE(d.has_value());
  // At rate 1.0 any other event would root a trace; span re-publication
  // must not, or the tracer would feed on its own output.
  EXPECT_FALSE(d->message().trace_ctx.valid());
  EXPECT_FALSE(d->message().headers.contains("traceparent"));
  broker.ack("spans", d->delivery_tag);
}

// ---------------------------------------------------------------------------
// /tracez + waterfall + health endpoints

TEST(TraceRoutes, TracezServesRecentSlowErrorAndPerTraceViews) {
  RateGuard rate{1.0};
  auto& tracer = telemetry::Tracer::instance();

  // Seed the sink with two spans of one trace, one of them an error.
  const auto ctx = tracer.start_trace();
  ASSERT_TRUE(ctx.valid());
  telemetry::Span fast;
  fast.name = "unit.fast";
  fast.context = ctx;
  fast.start_wall = tracer.wall_now();
  fast.duration = 0.001;
  tracer.record(fast);
  telemetry::Span failed;
  failed.name = "unit.failed";
  failed.context = tracer.child_of(ctx);
  failed.parent_span_id = ctx.span_id;
  failed.start_wall = tracer.wall_now();
  failed.duration = 0.5;
  failed.error = true;
  tracer.record(failed);

  dash::HttpServer server{0};
  dash::register_trace_routes(server);
  server.start();

  int status = 0;
  const auto recent = dash::http_get(server.port(), "/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(recent.find("\"view\":\"recent\""), std::string::npos);
  EXPECT_NE(recent.find("unit.fast"), std::string::npos);
  EXPECT_NE(recent.find("unit.failed"), std::string::npos);

  const auto errors =
      dash::http_get(server.port(), "/tracez?view=errors", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(errors.find("unit.failed"), std::string::npos);
  EXPECT_EQ(errors.find("unit.fast"), std::string::npos);

  const auto slow =
      dash::http_get(server.port(), "/tracez?view=slow&limit=1", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(slow.find("unit.failed"), std::string::npos);  // 0.5 s > 1 ms.

  const auto by_trace = dash::http_get(
      server.port(), "/tracez?trace=" + ctx.trace_id_hex(), &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(by_trace.find("unit.fast"), std::string::npos);
  EXPECT_NE(by_trace.find("unit.failed"), std::string::npos);

  const auto waterfall = dash::http_get(
      server.port(), "/trace/" + ctx.trace_id_hex(), &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(waterfall.find("unit.fast"), std::string::npos);
  EXPECT_NE(waterfall.find("unit.failed"), std::string::npos);

  (void)dash::http_get(server.port(), "/trace/nothex", &status);
  EXPECT_EQ(status, 400);  // Malformed id.
  (void)dash::http_get(server.port(),
                       "/trace/00000000000000000000000000000001", &status);
  EXPECT_EQ(status, 404);  // Well-formed but evicted/unsampled.
  server.stop();
}

TEST(TraceRoutes, HealthzIsLivenessAndReadyzFollowsTheProbe) {
  dash::HttpServer server{0};
  std::atomic<bool> ready{false};
  dash::register_health_routes(server, [&ready] { return ready.load(); });
  dash::register_trace_routes(server);
  server.start();

  int status = 0;
  EXPECT_EQ(dash::http_get(server.port(), "/healthz", &status),
            R"({"status":"ok"})");
  EXPECT_EQ(status, 200);

  EXPECT_EQ(dash::http_get(server.port(), "/readyz", &status),
            R"({"ready":false})");
  EXPECT_EQ(status, 503);
  ready = true;
  EXPECT_EQ(dash::http_get(server.port(), "/readyz", &status),
            R"({"ready":true})");
  EXPECT_EQ(status, 200);
  server.stop();
}

// ---------------------------------------------------------------------------
// Slow-query log

TEST(SlowQuery, ThresholdCrossingsAreCountedAndSpanTagged) {
  RateGuard rate{1.0};
  const double previous = stampede::query::slow_query_threshold();
  db::Database database;
  stampede::orm::create_stampede_schema(database);
  database.insert("workflow", {{"wf_id", db::Value{std::int64_t{1}}},
                               {"wf_uuid", db::Value{kWf.to_string()}}});
  const stampede::query::QueryExecutor exec{database};
  const auto select = db::Select{"workflow"};

  const auto slow0 = telemetry::registry()
                         .counter("stampede_query_slow_total")
                         .value();
  // Any wall time crosses a subnanosecond threshold.
  stampede::query::set_slow_query_threshold(1e-12);
  (void)exec.execute(select);
  EXPECT_EQ(telemetry::registry().counter("stampede_query_slow_total").value(),
            slow0 + 1);
  bool tagged = false;
  for (const auto& span : telemetry::Tracer::instance().sink().recent(16)) {
    if (span.name != "query.execute") continue;
    for (const auto& [key, value] : span.attributes) {
      if (key == "slow" && value == "true") tagged = true;
    }
  }
  EXPECT_TRUE(tagged);

  // Threshold 0 disables the log entirely.
  stampede::query::set_slow_query_threshold(0.0);
  (void)exec.execute(select);
  EXPECT_EQ(telemetry::registry().counter("stampede_query_slow_total").value(),
            slow0 + 1);
  stampede::query::set_slow_query_threshold(previous);
}

// ---------------------------------------------------------------------------
// Prometheus histogram exposition (satellite of DESIGN.md §10)

TEST(Exposition, StampedeHistogramExportsBucketsSumAndCount) {
  auto& histogram =
      telemetry::registry().histogram("stampede_tracing_test_seconds");
  histogram.observe(0.002);
  histogram.observe(0.2);
  const std::string text = telemetry::to_prometheus(telemetry::registry());

  EXPECT_NE(text.find("# TYPE stampede_tracing_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("stampede_tracing_test_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("stampede_tracing_test_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("stampede_tracing_test_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("stampede_tracing_test_seconds_sum"),
            std::string::npos);
}
