// Networked-bus benchmarks (DESIGN.md "Network substrate" + §12):
// publish→deliver→ack round-trip latency over loopback TCP and
// sustained throughput with 1 and 4 consumer connections
// (BENCH_net_throughput.json), a connection-count sweep of raw-socket
// publishers against the epoll reactor (BENCH_net_connections.json:
// five trials per point, median/min/max of the publish rate and of the
// connect+handshake burst the server's acceptor carries), and
// frame-codec micro benches.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "common/socket.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "net/frame.hpp"

namespace bus = stampede::bus;
namespace net = stampede::net;

namespace {

using Clock = std::chrono::steady_clock;

bus::Message bench_message(int i) {
  bus::Message message;
  message.routing_key = "stampede.job_inst.main.end";
  message.body =
      "ts=2012-06-16T10:00:00.000001Z event=stampede.job_inst.main.end "
      "level=Info job_inst.id=" +
      std::to_string(i) + " status=0 exitcode=0";
  message.published_at = 1339840800.0 + i;
  return message;
}

net::BusClientOptions client_options(int port) {
  net::BusClientOptions options;
  options.port = port;
  return options;
}

/// Sequential ping round trips through broker+server+client; returns
/// each publish→deliver latency in seconds (ack sent before the next
/// publish, so the ack leg overlaps the next round trip).
std::vector<double> measure_round_trips(int rounds) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();
  net::BusClient client{client_options(server.port())};
  client.wait_connected(5000);
  client.declare_queue("ping");

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    auto message = bench_message(i);
    message.routing_key = "ping";
    const auto start = Clock::now();
    client.publish("", std::move(message));
    const auto delivery = client.basic_get("ping", "bench", 5000);
    if (!delivery) break;
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    client.ack("ping", delivery->delivery_tag);
  }
  client.close();
  server.stop();
  return latencies;
}

/// Publishes `total` messages fanned over `consumers` queues, each
/// drained (get+ack) by its own BusClient connection; returns msgs/s.
double measure_throughput(int consumers, int total) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();

  net::BusClient admin{client_options(server.port())};
  admin.wait_connected(5000);
  for (int c = 0; c < consumers; ++c) {
    admin.declare_queue("q" + std::to_string(c));
  }

  const int per_consumer = total / consumers;
  std::atomic<int> done{0};
  const auto start = Clock::now();
  std::vector<std::jthread> drains;
  drains.reserve(static_cast<std::size_t>(consumers));
  for (int c = 0; c < consumers; ++c) {
    drains.emplace_back([&, c] {
      net::BusClient consumer{client_options(server.port())};
      consumer.wait_connected(5000);
      const std::string queue = "q" + std::to_string(c);
      for (int i = 0; i < per_consumer; ++i) {
        const auto delivery = consumer.basic_get(queue, "bench", 10'000);
        if (!delivery) break;
        consumer.ack(queue, delivery->delivery_tag);
        done.fetch_add(1, std::memory_order_relaxed);
      }
      consumer.close();
    });
  }
  for (int i = 0; i < per_consumer * consumers; ++i) {
    auto message = bench_message(i);
    message.routing_key = "q" + std::to_string(i % consumers);
    admin.publish("", std::move(message));
  }
  drains.clear();  // Joins every drain thread.
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  admin.close();
  server.stop();
  return seconds > 0 ? done.load() / seconds : 0.0;
}

void emit_net_json() {
  auto latencies = measure_round_trips(400);
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };
  double sum = 0;
  for (const double v : latencies) sum += v;
  const double mean = latencies.empty()
                          ? 0.0
                          : sum / static_cast<double>(latencies.size());
  const double one = measure_throughput(1, 4000);
  const double four = measure_throughput(4, 4000);

  std::FILE* out = std::fopen("BENCH_net_throughput.json", "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\n"
               "  \"transport\": \"loopback TCP, length-prefixed frames\",\n"
               "  \"round_trips\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"publish_to_deliver_seconds\": "
               "{\"mean\": %.6g, \"p50\": %.6g, \"p99\": %.6g},\n"
               "  \"throughput_msgs_per_second\": "
               "{\"consumers_1\": %.0f, \"consumers_4\": %.0f}\n"
               "}\n",
               latencies.size(), std::thread::hardware_concurrency(), mean,
               quantile(0.5), quantile(0.99), one, four);
  std::fclose(out);
  std::printf("BENCH_net_throughput.json: rtt mean %.0f us, p99 %.0f us; "
              "%.0f msg/s (1 consumer), %.0f msg/s (4 consumers)\n",
              mean * 1e6, quantile(0.99) * 1e6, one, four);
}

// ---------------------------------------------------------------------------
// Connection-count sweep: K raw-socket publishers against one BusServer

/// Bus handshake on a blocking socket (HELLO out, HELLO_OK back).
bool plain_handshake(int fd) {
  const auto hello = net::encode_hello(/*channel=*/1, net::kBusMagic);
  if (!stampede::common::send_all(fd, hello.data(), hello.size())) {
    return false;
  }
  std::string buffer;
  char chunk[256];
  for (int i = 0; i < 200; ++i) {
    std::size_t received = 0;
    const auto status = stampede::common::recv_some(fd, chunk, sizeof(chunk),
                                                    5000, &received);
    if (status == stampede::common::RecvStatus::kClosed ||
        status == stampede::common::RecvStatus::kError) {
      return false;
    }
    if (status == stampede::common::RecvStatus::kTimeout) continue;
    buffer.append(chunk, received);
    net::Frame frame;
    std::size_t consumed = 0;
    const auto decoded = net::decode_frame(buffer, consumed, frame);
    if (decoded == net::DecodeStatus::kNeedMore) continue;
    return decoded == net::DecodeStatus::kFrame &&
           frame.type == net::FrameType::kHelloOk;
  }
  return false;
}

/// One sweep trial; both fields are 0 when the trial failed.
struct SweepTrial {
  double msgs_per_second = 0.0;  ///< Broker ingest rate.
  double setup_s = 0.0;          ///< Connect + handshake of every socket.
};

/// Opens `connections` raw publisher sockets against a fresh
/// BusServer, fans `total` publishes across all of them from a few
/// sender threads (each thread owns many sockets — the reactor is what
/// scales, not the bench), and measures broker-ingest msgs/s.
SweepTrial measure_connection_sweep(std::size_t connections,
                                    std::size_t total) {
  namespace common = stampede::common;
  bus::Broker broker;
  // Drop-head cap: the sweep has no consumer, so an unbounded queue
  // would hold the whole run in memory; `enqueued` still counts every
  // accepted message, which is what the wait below keys on.
  bus::QueueOptions queue_options;
  queue_options.max_length = 8192;
  broker.declare_queue("sweep", queue_options);

  net::BusServerOptions options;
  options.workers = 2;
  net::BusServer server{broker, options};
  server.start();

  const std::size_t threads =
      std::min<std::size_t>(4, std::max<std::size_t>(1, connections));
  std::vector<common::SocketFd> sockets(connections);
  std::atomic<bool> setup_failed{false};
  const auto setup_start = Clock::now();
  {
    std::vector<std::jthread> connectors;
    for (std::size_t t = 0; t < threads; ++t) {
      connectors.emplace_back([&, t] {
        for (std::size_t i = t; i < connections; i += threads) {
          auto fd = common::connect_tcp("127.0.0.1", server.port());
          if (!fd.valid() || !plain_handshake(fd.get())) {
            setup_failed.store(true);
            return;
          }
          sockets[i] = std::move(fd);
        }
      });
    }
  }
  if (setup_failed.load()) return {};
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();

  // Every sweep point pushes the same total so the measurement windows
  // (and the broker queue depths they build) are comparable.
  const std::size_t per_connection =
      std::max<std::size_t>(1, total / connections);
  const std::size_t expected = per_connection * connections;
  // Each connection publishes a burst per visit as one PUBLISH frame of
  // up to kBurst messages (the shape BusClient's group commit produces),
  // round-robin over the thread's sockets so all K connections stay
  // concurrently active.
  constexpr std::size_t kBurst = 128;
  auto burst_message = bench_message(0);
  burst_message.routing_key = "sweep";
  const auto burst_wire = [&](std::size_t n) {
    const std::vector<net::WirePublish> entries(
        n, net::WirePublish{"", burst_message});
    return net::encode_publish(0, entries);
  };
  const std::string full_burst = burst_wire(kBurst);
  const std::string last_burst = burst_wire(per_connection % kBurst);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> senders;
    for (std::size_t t = 0; t < threads; ++t) {
      senders.emplace_back([&, t] {
        std::size_t sent = 0;
        while (sent < per_connection) {
          const std::size_t n = std::min(kBurst, per_connection - sent);
          const std::string& wire = n == kBurst ? full_burst : last_burst;
          for (std::size_t i = t; i < connections; i += threads) {
            if (!common::send_all(sockets[i].get(), wire.data(),
                                  wire.size())) {
              return;
            }
          }
          sent += n;
        }
      });
    }
  }
  // Publishes are fire-and-forget: completion is the broker having
  // routed every message, not the last send() returning.
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (broker.queue_stats("sweep").enqueued < expected &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (broker.queue_stats("sweep").enqueued < expected) return {};
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  sockets.clear();
  server.stop();
  if (seconds <= 0) return {};
  return {static_cast<double>(expected) / seconds, setup_s};
}

/// Median, min and max of a trial series.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = n % 2 == 1
                            ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return {median, values.front(), values.back()};
}

void print_spread(std::FILE* out, const char* name, const Spread& s,
                  const char* format) {
  std::fprintf(out, "\"%s\": {\"median\": ", name);
  std::fprintf(out, format, s.median);
  std::fprintf(out, ", \"min\": ");
  std::fprintf(out, format, s.min);
  std::fprintf(out, ", \"max\": ");
  std::fprintf(out, format, s.max);
  std::fprintf(out, "}");
}

void emit_connection_sweep_json() {
  // 256 messages per connection at the widest point (4096), so even
  // there every socket carries a sustained multi-burst stream.
  constexpr std::size_t kTotal = 4096 * 256;
  constexpr std::size_t kTrials = 5;
  const std::size_t sweep[] = {1, 16, 256, 1024, 4096};
  Spread rates[std::size(sweep)];
  Spread setups[std::size(sweep)];
  std::size_t failed = 0;
  for (std::size_t i = 0; i < std::size(sweep); ++i) {
    std::vector<double> rate;
    std::vector<double> setup;
    for (std::size_t t = 0; t < kTrials; ++t) {
      const SweepTrial trial = measure_connection_sweep(sweep[i], kTotal);
      if (trial.msgs_per_second == 0.0) ++failed;
      rate.push_back(trial.msgs_per_second);
      setup.push_back(trial.setup_s);
    }
    rates[i] = spread_of(std::move(rate));
    setups[i] = spread_of(std::move(setup));
    std::printf("  %4zu connections: %.0f msg/s [%.0f, %.0f], "
                "setup %.1f ms [%.1f, %.1f]\n",
                sweep[i], rates[i].median, rates[i].min, rates[i].max,
                setups[i].median * 1e3, setups[i].min * 1e3,
                setups[i].max * 1e3);
  }
  const double baseline16 = rates[1].median;
  const double ratio4k = baseline16 > 0 ? rates[4].median / baseline16 : 0.0;

  std::FILE* out = std::fopen("BENCH_net_connections.json", "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\n"
               "  \"transport\": \"loopback TCP, raw-socket publishers, "
               "epoll reactor (2 workers)\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"trials\": %zu,\n"
               "  \"failed_trials\": %zu,\n"
               "  \"messages_per_sweep\": %zu,\n"
               "  \"sweep\": [\n",
               std::thread::hardware_concurrency(), STAMPEDE_BUILD_TYPE,
               kTrials, failed, kTotal);
  for (std::size_t i = 0; i < std::size(sweep); ++i) {
    std::fprintf(out, "    {\"connections\": %zu, ", sweep[i]);
    print_spread(out, "msgs_per_second", rates[i], "%.0f");
    std::fprintf(out, ", ");
    print_spread(out, "setup_s", setups[i], "%.4f");
    std::fprintf(out, "}%s\n", i + 1 < std::size(sweep) ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"throughput_4096_over_16\": %.3f\n"
               "}\n",
               ratio4k);
  std::fclose(out);
  std::printf("BENCH_net_connections.json: 4096-connection median "
              "throughput is %.0f%% of the 16-connection median\n",
              ratio4k * 100.0);
}

// ---------------------------------------------------------------------------
// Frame codec micro benches

void BM_FrameEncodePublish(benchmark::State& state) {
  const auto message = bench_message(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::encode_publish(1, {{"monitoring", message}}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameEncodePublish);

void BM_FrameDecodePublish(benchmark::State& state) {
  const auto bytes = net::encode_publish(1, {{"monitoring", bench_message(7)}});
  for (auto _ : state) {
    net::Frame frame;
    std::size_t consumed = 0;
    benchmark::DoNotOptimize(net::decode_frame(bytes, consumed, frame));
    std::vector<net::WirePublish> entries;
    benchmark::DoNotOptimize(net::parse_publish(frame, &entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameDecodePublish);

void BM_NetPublishConsumeAck(benchmark::State& state) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();
  net::BusClient client{client_options(server.port())};
  client.wait_connected(5000);
  client.declare_queue("bm");
  int i = 0;
  for (auto _ : state) {
    auto message = bench_message(i++);
    message.routing_key = "bm";
    client.publish("", std::move(message));
    const auto delivery = client.basic_get("bm", "bench", 5000);
    if (delivery) client.ack("bm", delivery->delivery_tag);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  client.close();
  server.stop();
}
BENCHMARK(BM_NetPublishConsumeAck)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  emit_net_json();
  emit_connection_sweep_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
