// Tests for the event-driven network core (DESIGN.md §12): EventLoop
// task/timer dispatch, Connection frame reassembly under torn and
// byte-at-a-time delivery, oversize-frame rejection, the slow-consumer
// backpressure chain (bounded outbound buffer → blocked producer → TCP
// pushback), message-list codec round-trips, a many-connection soak
// (≥512 concurrent publishers against one BusServer), the handshake's
// refusal of another service's magic or a stale protocol version, the
// shared acceptor's backoff when the fd table is full, and the client
// side's ClientLink (channel-correlated requests, loss reporting)
// against a scripted raw peer.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "common/socket.hpp"
#include "net/bus_server.hpp"
#include "net/client_link.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "telemetry/metrics.hpp"

namespace bus = stampede::bus;
namespace net = stampede::net;
namespace common = stampede::common;
namespace telemetry = stampede::telemetry;

using namespace std::chrono_literals;

namespace {

/// Runs `fn` on the loop thread and waits for it to finish.
template <typename Fn>
void run_on_loop(net::EventLoop& loop, Fn fn) {
  std::promise<void> done;
  loop.post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

/// A connected loopback TCP pair: `server` is the accepted side (handed
/// to a Connection), `client` is the test's raw peer socket.
struct TcpPair {
  common::SocketFd server;
  common::SocketFd client;
};

TcpPair make_tcp_pair() {
  int port = 0;
  auto listener = common::listen_tcp("127.0.0.1", 0, /*backlog=*/4, &port);
  TcpPair pair;
  pair.client = common::connect_tcp("127.0.0.1", port);
  EXPECT_TRUE(pair.client.valid());
  pair.server = common::accept_client(listener.get(), /*timeout_ms=*/2000);
  EXPECT_TRUE(pair.server.valid());
  return pair;
}

/// Frame sink wired as a Connection's DataHandler: decodes every
/// complete frame, drops the connection on a corrupt stream.
struct FrameSink {
  std::mutex mutex;
  std::vector<net::Frame> frames;
  std::atomic<int> count{0};
  std::atomic<bool> decode_error{false};
  std::atomic<bool> closed{false};

  net::Connection::DataHandler data_handler(
      const std::shared_ptr<net::Connection>& conn) {
    return [this, conn](std::string_view data) -> std::size_t {
      std::size_t eaten = 0;
      while (eaten < data.size()) {
        net::Frame frame;
        std::size_t consumed = 0;
        const auto status =
            net::decode_frame(data.substr(eaten), consumed, frame);
        if (status == net::DecodeStatus::kNeedMore) break;
        if (status == net::DecodeStatus::kError) {
          decode_error.store(true);
          conn->close();
          return data.size();
        }
        eaten += consumed;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          frames.push_back(std::move(frame));
        }
        count.fetch_add(1);
      }
      return eaten;
    };
  }

  bool wait_count(int expected, std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (count.load() < expected) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }

  bool wait_closed(std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!closed.load()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }
};

bus::Message make_message(const std::string& key, const std::string& body) {
  bus::Message message;
  message.routing_key = key;
  message.body = body;
  return message;
}

/// Bus client handshake over a blocking socket: HELLO out, HELLO_OK
/// back. Returns false on any transport or protocol error.
bool plain_handshake(int fd) {
  const auto hello = net::encode_hello(/*channel=*/1, net::kBusMagic);
  if (!common::send_all(fd, hello.data(), hello.size())) return false;
  std::string buffer;
  char chunk[256];
  for (int i = 0; i < 100; ++i) {
    std::size_t received = 0;
    const auto status =
        common::recv_some(fd, chunk, sizeof(chunk), 5000, &received);
    if (status == common::RecvStatus::kClosed ||
        status == common::RecvStatus::kError) {
      return false;
    }
    if (status == common::RecvStatus::kTimeout) continue;
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

/// Blocking read of one whole frame (`carry` holds bytes read past it).
bool read_frame(int fd, std::string& carry, net::Frame* out) {
  for (;;) {
    std::size_t consumed = 0;
    const auto status = net::decode_frame(carry, consumed, *out);
    if (status == net::DecodeStatus::kFrame) {
      carry.erase(0, consumed);
      return true;
    }
    if (status == net::DecodeStatus::kError) return false;
    char chunk[4096];
    std::size_t received = 0;
    if (common::recv_some(fd, chunk, sizeof(chunk), 5000, &received) !=
        common::RecvStatus::kData) {
      return false;
    }
    carry.append(chunk, received);
  }
}

/// A scripted raw peer for ClientLink: accepts one connection, answers
/// its bus HELLO, runs `script` on the socket, then hangs up.
class FakePeer {
 public:
  using Script = std::function<void(int fd, std::string& carry)>;

  explicit FakePeer(Script script) {
    listener_ = common::listen_tcp("127.0.0.1", 0, /*backlog=*/4, &port_);
    thread_ = std::thread([this, script = std::move(script)] {
      auto fd = common::accept_client(listener_.get(), /*timeout_ms=*/5000);
      std::string carry;
      net::Frame hello;
      if (!fd.valid() || !read_frame(fd.get(), carry, &hello)) return;
      bool accepted = false;
      const auto ok = net::answer_hello(hello, net::kBusMagic, &accepted);
      if (!accepted || !common::send_all(fd.get(), ok.data(), ok.size())) {
        return;
      }
      script(fd.get(), carry);
    });
  }
  ~FakePeer() { thread_.join(); }

  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;

  [[nodiscard]] int port() const { return port_; }

 private:
  common::SocketFd listener_;
  int port_ = 0;
  std::thread thread_;
};

/// Reads `count` non-heartbeat frames. False when the stream ends first.
bool read_requests(int fd, std::string& carry, std::size_t count,
                   std::vector<net::Frame>* out) {
  while (out->size() < count) {
    net::Frame frame;
    if (!read_frame(fd, carry, &frame)) return false;
    if (frame.type != net::FrameType::kHeartbeat) out->push_back(frame);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// EventLoop

TEST(EventLoop, RunsPostedAndDeferredTasks) {
  net::EventLoop loop;
  loop.start();

  std::atomic<int> ran{0};
  run_on_loop(loop, [&] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);

  // defer() from inside a loop callback queues instead of recursing.
  std::atomic<bool> task_finished{false};
  std::promise<bool> deferred_after;
  run_on_loop(loop, [&] {
    loop.defer([&] { deferred_after.set_value(task_finished.load()); });
    task_finished.store(true);
  });
  EXPECT_TRUE(deferred_after.get_future().get());

  EXPECT_TRUE(loop.in_loop_thread() == false);
  loop.stop();
}

TEST(EventLoop, OneShotAndPeriodicTimers) {
  net::EventLoop loop;
  loop.start();

  std::atomic<int> one_shot{0};
  std::atomic<int> periodic{0};
  std::atomic<int> cancelled{0};
  run_on_loop(loop, [&] {
    (void)loop.schedule(10ms, [&] { one_shot.fetch_add(1); });
    const auto doomed = loop.schedule(10ms, [&] { cancelled.fetch_add(1); });
    loop.cancel(doomed);
    (void)loop.schedule_every(5ms, [&] { periodic.fetch_add(1); });
  });

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while ((one_shot.load() < 1 || periodic.load() < 3) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_EQ(one_shot.load(), 1);
  EXPECT_GE(periodic.load(), 3);
  EXPECT_EQ(cancelled.load(), 0);
  loop.stop();
}

TEST(EventLoop, TimerFiresOnTimeUnderConcurrentWakeups) {
  // Regression: a wakeup landing in the same wheel tick as a deadline
  // (but before it) used to advance the sweep cursor past the slot,
  // stranding the timer for a full revolution (~1 s) while the loop
  // busy-spun on epoll_wait(0). Hammer the loop with sub-tick wakeups
  // around short deadlines and require on-time delivery.
  net::EventLoop loop;
  loop.start();
  for (int round = 0; round < 20; ++round) {
    std::promise<void> fired;
    auto fired_future = fired.get_future();
    run_on_loop(loop, [&] {
      (void)loop.schedule(5ms, [&] { fired.set_value(); });
    });
    const auto start = std::chrono::steady_clock::now();
    while (fired_future.wait_for(0ms) != std::future_status::ready &&
           std::chrono::steady_clock::now() - start < 2s) {
      loop.defer([] {});  // Each wakeup runs a timer sweep mid-tick.
      std::this_thread::sleep_for(500us);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_EQ(fired_future.wait_for(0ms), std::future_status::ready)
        << "timer stranded in round " << round;
    EXPECT_LT(elapsed.count(), 500) << "timer late in round " << round
                                    << " (wheel-revolution stall?)";
  }
  loop.stop();
}

TEST(EventLoop, WatchRejectsDuplicateFdWithoutClobbering) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  std::atomic<int> first_fired{0};
  std::atomic<int> second_fired{0};
  bool first_ok = false;
  bool second_ok = true;
  run_on_loop(loop, [&] {
    first_ok = loop.watch(pair.server.get(), net::EventLoop::kReadable,
                          [&](std::uint32_t) { first_fired.fetch_add(1); });
    // A second ADD on the same fd must fail (EEXIST) and must NOT
    // replace the live callback.
    second_ok = loop.watch(pair.server.get(), net::EventLoop::kReadable,
                           [&](std::uint32_t) { second_fired.fetch_add(1); });
  });
  EXPECT_TRUE(first_ok);
  EXPECT_FALSE(second_ok);

  ASSERT_TRUE(common::send_all(pair.client.get(), "x", 1));
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (first_fired.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(first_fired.load(), 0);
  EXPECT_EQ(second_fired.load(), 0);
  run_on_loop(loop, [&] { loop.unwatch(pair.server.get()); });
  loop.stop();
}

// ---------------------------------------------------------------------------
// Connection frame reassembly

TEST(Connection, SynchronousCloseInsideDataHandlerIsSafe) {
  // BusServer closes connections from INSIDE on_data on protocol
  // errors, which runs do_close while the data handler's own closure is
  // still on the stack. Its release must be deferred past the unwind
  // (destroying an executing std::function is UB).
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                net::Connection::Options{});
  std::atomic<bool> closed{false};
  std::atomic<int> handler_calls{0};
  run_on_loop(loop, [&] {
    conn->start(
        [&, conn](std::string_view data) -> std::size_t {
          handler_calls.fetch_add(1);
          conn->close();  // Synchronous close from inside the handler.
          return data.size();
        },
        [&] { closed.store(true); });
  });

  ASSERT_TRUE(common::send_all(pair.client.get(), "junk", 4));
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!closed.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(closed.load());
  EXPECT_EQ(handler_calls.load(), 1);
  EXPECT_TRUE(conn->closed());
  loop.stop();
}

TEST(Connection, ReassemblesFrameDeliveredByteAtATime) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                net::Connection::Options{});
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  const auto wire = net::encode_publish(
      /*channel=*/0, {{"ex", make_message("rk", "byte-at-a-time body")}});
  ASSERT_GT(wire.size(), 16u);
  // Trickle everything but the last byte: no decoder can produce a frame
  // from a strict prefix, so the count must still be zero.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_TRUE(common::send_all(pair.client.get(), wire.data() + i, 1));
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sink.count.load(), 0);

  ASSERT_TRUE(
      common::send_all(pair.client.get(), wire.data() + wire.size() - 1, 1));
  ASSERT_TRUE(sink.wait_count(1, 2000ms));

  std::vector<net::WirePublish> entries;
  {
    const std::lock_guard<std::mutex> lock(sink.mutex);
    ASSERT_EQ(sink.frames.size(), 1u);
    EXPECT_EQ(sink.frames[0].type, net::FrameType::kPublish);
    ASSERT_TRUE(net::parse_publish(sink.frames[0], &entries));
  }
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].exchange, "ex");
  EXPECT_EQ(entries[0].message.routing_key, "rk");
  EXPECT_EQ(entries[0].message.body, "byte-at-a-time body");

  conn->close();
  loop.stop();
}

TEST(Connection, ReassemblesFramesTornAcrossWrites) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                net::Connection::Options{});
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  const auto first = net::encode_publish(0, {{"ex", make_message("a", "one")}});
  const auto second =
      net::encode_publish(0, {{"ex", make_message("b", "two")}});
  const std::string wire = first + second;

  // Chunk 1 ends mid-way through the second frame: exactly one frame
  // must come out, with the second's prefix parked in the read buffer.
  const std::size_t torn = first.size() + second.size() / 2;
  ASSERT_TRUE(common::send_all(pair.client.get(), wire.data(), torn));
  ASSERT_TRUE(sink.wait_count(1, 2000ms));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(sink.count.load(), 1);

  ASSERT_TRUE(common::send_all(pair.client.get(), wire.data() + torn,
                               wire.size() - torn));
  ASSERT_TRUE(sink.wait_count(2, 2000ms));

  const std::lock_guard<std::mutex> lock(sink.mutex);
  ASSERT_EQ(sink.frames.size(), 2u);
  std::vector<net::WirePublish> entries;
  ASSERT_TRUE(net::parse_publish(sink.frames[0], &entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].message.body, "one");
  ASSERT_TRUE(net::parse_publish(sink.frames[1], &entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].message.body, "two");

  conn->close();
  loop.stop();
}

TEST(Connection, DropsPeerOnOversizeFrame) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                net::Connection::Options{});
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  // A length prefix past kMaxFrameBytes is a corrupt stream: the sink
  // must flag the decode error and the connection must die.
  std::string poison;
  net::put_u32(poison,
               static_cast<std::uint32_t>(net::kMaxFrameBytes + 1));
  poison.append(8, '\0');
  ASSERT_TRUE(common::send_all(pair.client.get(), poison.data(),
                               poison.size()));

  ASSERT_TRUE(sink.wait_closed(2000ms));
  EXPECT_TRUE(sink.decode_error.load());
  EXPECT_EQ(sink.count.load(), 0);
  loop.stop();
}

// ---------------------------------------------------------------------------
// Backpressure: bounded outbound buffer → blocked producer → TCP pushback

TEST(Connection, SlowConsumerBlocksProducerUntilDrained) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();

  net::Connection::Options options;
  options.outbound_capacity = 32 * 1024;
  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                options);
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  const auto stalls_before =
      telemetry::registry()
          .counter("stampede_net_backpressure_stalls_total")
          .value();

  // 16 MiB dwarfs the outbound cap plus both kernel socket buffers, so
  // with the peer not reading, the producer MUST park inside send().
  constexpr std::size_t kChunk = 64 * 1024;
  constexpr std::size_t kChunks = 256;
  constexpr std::size_t kTotal = kChunk * kChunks;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    const std::string chunk(kChunk, 'x');
    for (std::size_t i = 0; i < kChunks; ++i) {
      if (!conn->send(chunk)) break;
      sent.fetch_add(kChunk);
    }
    producer_done.store(true);
  });

  std::this_thread::sleep_for(300ms);
  EXPECT_FALSE(producer_done.load()) << "producer never hit backpressure";
  EXPECT_LT(sent.load(), kTotal);
  EXPECT_GT(telemetry::registry()
                .counter("stampede_net_backpressure_stalls_total")
                .value(),
            stalls_before);

  // Drain the peer: the producer unblocks and every byte arrives intact.
  std::size_t received = 0;
  bool corrupted = false;
  char buffer[64 * 1024];
  while (received < kTotal) {
    std::size_t got = 0;
    const auto status = common::recv_some(pair.client.get(), buffer,
                                          sizeof(buffer), 10000, &got);
    if (status == common::RecvStatus::kTimeout) continue;
    ASSERT_EQ(status, common::RecvStatus::kData);
    for (std::size_t i = 0; i < got; ++i) {
      if (buffer[i] != 'x') corrupted = true;
    }
    received += got;
  }
  producer.join();
  EXPECT_TRUE(producer_done.load());
  EXPECT_EQ(sent.load(), kTotal);
  EXPECT_EQ(received, kTotal);
  EXPECT_FALSE(corrupted);

  conn->close();
  loop.stop();
}

namespace {

/// Parks `n` producer threads inside send() against a peer that is not
/// reading, then returns them plus the flag each thread sets with its
/// final send() result. Backpressure engagement is verified before
/// returning.
struct ParkedSenders {
  std::vector<std::thread> threads;
  /// One per thread: the last send() return value once unparked.
  std::vector<std::unique_ptr<std::atomic<int>>> results;  ///< -1 = parked.

  void park(const std::shared_ptr<net::Connection>& conn, int n) {
    constexpr std::size_t kChunk = 64 * 1024;
    for (int i = 0; i < n; ++i) {
      results.push_back(std::make_unique<std::atomic<int>>(-1));
      auto* result = results.back().get();
      threads.emplace_back([conn, result] {
        const std::string chunk(kChunk, 'p');
        bool ok = true;
        // Enough volume that every thread ends up parked at capacity.
        for (int c = 0; ok && c < 1024; ++c) ok = conn->send(chunk);
        result->store(ok ? 1 : 0);
      });
    }
    // All still parked (none finished) after the buffers filled.
    std::this_thread::sleep_for(300ms);
    for (const auto& r : results) ASSERT_EQ(r->load(), -1);
  }

  /// Every parked sender must unblock with send() == false within the
  /// budget — the wakeup-on-close guarantee.
  void expect_all_fail_within(std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (const auto& r : results) {
      while (r->load() == -1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
      EXPECT_EQ(r->load(), 0) << "sender still parked or send succeeded";
    }
    for (auto& t : threads) t.join();
    threads.clear();
  }
};

}  // namespace

// Close must wake EVERY cross-thread sender parked on out_cv_ with an
// error — a single notify_one would strand all but one of them forever.
TEST(Connection, CloseWakesAllParkedSendersWithError) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();
  net::Connection::Options options;
  options.outbound_capacity = 32 * 1024;
  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                options);
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  ParkedSenders senders;
  senders.park(conn, 4);
  conn->close();
  senders.expect_all_fail_within(2000ms);
  EXPECT_TRUE(sink.wait_closed(2000ms));
  loop.stop();
}

// The do_close-from-inside-on_data path: the data handler itself calls
// close() (protocol error) while senders are parked. do_close runs on
// the loop thread mid-dispatch; the parked senders must still all wake.
TEST(Connection, ProtocolErrorCloseInsideOnDataWakesParkedSenders) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();
  net::Connection::Options options;
  options.outbound_capacity = 32 * 1024;
  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                options);
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  ParkedSenders senders;
  senders.park(conn, 3);
  // Garbage bytes: FrameSink's decoder errors and closes the connection
  // from inside the handler.
  const std::string garbage = "\xff\xff\xff\xffnot a frame";
  ASSERT_TRUE(
      common::send_all(pair.client.get(), garbage.data(), garbage.size()));
  senders.expect_all_fail_within(2000ms);
  EXPECT_TRUE(sink.wait_closed(2000ms));
  EXPECT_TRUE(sink.decode_error.load());
  loop.stop();
}

// Peer hangup variant: EOF arrives while senders are parked; teardown
// originates from the readable path rather than an API call.
TEST(Connection, PeerHangupWakesParkedSenders) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();
  net::Connection::Options options;
  options.outbound_capacity = 32 * 1024;
  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                options);
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  ParkedSenders senders;
  senders.park(conn, 3);
  pair.client.reset();  // RST/EOF the peer.
  senders.expect_all_fail_within(2000ms);
  EXPECT_TRUE(sink.wait_closed(2000ms));
  loop.stop();
}

// close_after_flush from a NON-loop thread: must defer to the loop (not
// touch loop-thread state), deliver everything queued, then hang up.
TEST(Connection, CrossThreadCloseAfterFlushDeliversThenCloses) {
  net::EventLoop loop;
  loop.start();
  auto pair = make_tcp_pair();
  auto conn = std::make_shared<net::Connection>(loop, std::move(pair.server),
                                                net::Connection::Options{});
  FrameSink sink;
  run_on_loop(loop, [&] {
    conn->start(sink.data_handler(conn), [&] { sink.closed.store(true); });
  });

  const std::string payload(256 * 1024, 'f');
  std::thread producer([&] {
    EXPECT_TRUE(conn->send(payload));
    conn->close_after_flush();       // Cross-thread: defers to the loop.
    conn->close_after_flush();       // Idempotent, incl. post-close.
  });

  std::string received;
  char buffer[64 * 1024];
  for (;;) {
    std::size_t got = 0;
    const auto status = common::recv_some(pair.client.get(), buffer,
                                          sizeof(buffer), 10000, &got);
    if (status == common::RecvStatus::kTimeout) continue;
    if (status == common::RecvStatus::kClosed) break;
    ASSERT_EQ(status, common::RecvStatus::kData);
    received.append(buffer, got);
  }
  producer.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_TRUE(sink.wait_closed(2000ms));
  loop.stop();
}

// ---------------------------------------------------------------------------
// Message-list codec (PUBLISH / DELIVER / ACK)

TEST(ListCodec, PublishRoundTrips) {
  std::vector<net::WirePublish> entries;
  for (int i = 0; i < 5; ++i) {
    entries.push_back(net::WirePublish{
        "ex" + std::to_string(i),
        make_message("key" + std::to_string(i), std::string(i * 7, 'b'))});
  }
  const auto wire = net::encode_publish(0, entries);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(wire, consumed, frame),
            net::DecodeStatus::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.type, net::FrameType::kPublish);

  std::vector<net::WirePublish> decoded;
  ASSERT_TRUE(net::parse_publish(frame, &decoded));
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].exchange, entries[i].exchange);
    EXPECT_EQ(decoded[i].message.routing_key, entries[i].message.routing_key);
    EXPECT_EQ(decoded[i].message.body, entries[i].message.body);
  }
}

TEST(ListCodec, DeliverRoundTrips) {
  std::vector<bus::Delivery> deliveries;
  for (int i = 0; i < 4; ++i) {
    deliveries.push_back(bus::Delivery::make(
        100 + static_cast<std::uint64_t>(i), "consumer", "ex",
        /*redelivered=*/(i % 2) == 1,
        make_message("rk", "payload" + std::to_string(i))));
  }
  const auto wire = net::encode_deliver(0, "q", deliveries);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(wire, consumed, frame),
            net::DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, net::FrameType::kDeliver);

  std::vector<net::WireDelivery> decoded;
  ASSERT_TRUE(net::parse_deliver(frame, &decoded));
  ASSERT_EQ(decoded.size(), deliveries.size());
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    EXPECT_EQ(decoded[i].queue, "q");
    EXPECT_EQ(decoded[i].delivery_tag, deliveries[i].delivery_tag);
    EXPECT_EQ(decoded[i].redelivered, deliveries[i].redelivered);
    EXPECT_EQ(decoded[i].message.body, deliveries[i].message().body);
  }
}

TEST(ListCodec, AckRoundTripsAndRejectsTruncation) {
  std::vector<net::WireAck> acks;
  for (int i = 0; i < 8; ++i) {
    acks.push_back(net::WireAck{"q" + std::to_string(i % 2),
                                static_cast<std::uint64_t>(i) << 40});
  }
  const auto wire = net::encode_ack(7, acks);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(wire, consumed, frame),
            net::DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, net::FrameType::kAck);
  EXPECT_EQ(frame.channel, 7u);

  std::vector<net::WireAck> decoded;
  ASSERT_TRUE(net::parse_ack(frame, &decoded));
  ASSERT_EQ(decoded.size(), acks.size());
  for (std::size_t i = 0; i < acks.size(); ++i) {
    EXPECT_EQ(decoded[i].queue, acks[i].queue);
    EXPECT_EQ(decoded[i].delivery_tag, acks[i].delivery_tag);
  }

  // A truncated payload (count says 8, bytes hold fewer) must not parse.
  net::Frame truncated = frame;
  truncated.payload.resize(truncated.payload.size() / 2);
  std::vector<net::WireAck> rejected;
  EXPECT_FALSE(net::parse_ack(truncated, &rejected));
}

// ---------------------------------------------------------------------------
// Many-connection soak

TEST(BusServerSoak, FiveHundredTwelveConcurrentPublishers) {
  constexpr std::size_t kConnections = 512;
  constexpr std::size_t kThreads = 8;

  bus::Broker broker;
  broker.declare_exchange("soak.ex", bus::ExchangeType::kDirect);
  broker.declare_queue("soak.q");
  broker.bind("soak.q", "soak.ex", "k");

  net::BusServerOptions options;
  options.workers = 2;
  net::BusServer server(broker, options);
  server.start();
  const int port = server.port();

  // Phase 1: every connection handshakes and stays open, so all 512 are
  // alive on the server's event loops at once.
  std::vector<common::SocketFd> sockets(kConnections);
  std::atomic<std::size_t> handshakes{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < kConnections; i += kThreads) {
          auto fd = common::connect_tcp("127.0.0.1", port);
          if (!fd.valid()) continue;
          if (!plain_handshake(fd.get())) continue;
          sockets[i] = std::move(fd);
          handshakes.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  ASSERT_EQ(handshakes.load(), kConnections);

  const auto attach_deadline = std::chrono::steady_clock::now() + 10s;
  while (server.active_connections() < kConnections &&
         std::chrono::steady_clock::now() < attach_deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.active_connections(), kConnections);

  // Phase 2: one publish per live connection; the broker must end up
  // with exactly one routed message for each.
  {
    std::atomic<std::size_t> publish_failures{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < kConnections; i += kThreads) {
          const auto wire = net::encode_publish(
              0, {{"soak.ex", make_message("k", "m" + std::to_string(i))}});
          if (!common::send_all(sockets[i].get(), wire.data(),
                                wire.size())) {
            publish_failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(publish_failures.load(), 0u);
  }

  const auto publish_deadline = std::chrono::steady_clock::now() + 15s;
  while (broker.queue_stats("soak.q").depth < kConnections &&
         std::chrono::steady_clock::now() < publish_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(broker.queue_stats("soak.q").depth, kConnections);

  sockets.clear();
  server.stop();
}

// The one accept path (net::Acceptor) under fd exhaustion. HttpServer
// and ShardHost accept through the same code, so one server covers all
// three. accept() failing EMFILE leaves the client queued and the listen
// fd readable: a loop that retried at once would spin on it.
TEST(AcceptBackoff, FullFdTablePausesAcceptingThenServesThePendingClient) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();

  // Only this process's soft limit drops, so filling the table is cheap.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 1024);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> filler;
  const auto release = [&] {
    for (const int fd : filler) ::close(fd);
    filler.clear();
    ::setrlimit(RLIMIT_NOFILE, &saved);
  };
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    filler.push_back(fd);
  }
  if (filler.empty()) {
    release();
    FAIL() << "could not fill the fd table";
  }
  // One slot for the client's socket; the server's accept gets none.
  ::close(filler.back());
  filler.pop_back();
  auto client = common::connect_tcp("127.0.0.1", server.port());
  const auto hello = net::encode_hello(/*channel=*/1, net::kBusMagic);
  const bool sent =
      client.valid() && common::send_all(client.get(), hello.data(),
                                         hello.size());

  std::this_thread::sleep_for(50ms);  // The first accept has failed.
  auto& wakeups =
      telemetry::registry().counter("stampede_net_epoll_wakeups_total");
  const std::uint64_t before = wakeups.value();
  std::this_thread::sleep_for(300ms);
  const std::uint64_t woken = wakeups.value() - before;
  const std::size_t accepted = server.active_connections();
  release();

  ASSERT_TRUE(sent);
  // A re-arm every 100 ms costs a few wakeups; a spin costs thousands.
  EXPECT_LT(woken, 50u) << "accept loop spinning on a full fd table";
  EXPECT_EQ(accepted, 0u);

  const auto start = std::chrono::steady_clock::now();
  std::string carry;
  net::Frame reply;
  ASSERT_TRUE(read_frame(client.get(), carry, &reply));
  EXPECT_EQ(reply.type, net::FrameType::kHelloOk);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  server.stop();
}

// ---------------------------------------------------------------------------
// ClientLink

TEST(ClientLink, OverlappingRequestsEachGetTheirOwnChannelsReply) {
  constexpr std::size_t kRequests = 8;
  FakePeer peer{[](int fd, std::string& carry) {
    // Answer only once every request is in, in reverse order, so each
    // reply reaches its caller through channel correlation alone.
    std::vector<net::Frame> requests;
    if (!read_requests(fd, carry, kRequests, &requests)) return;
    for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
      const auto reply = net::encode_frame(
          net::Frame{net::FrameType::kOk, it->channel, it->payload});
      if (!common::send_all(fd, reply.data(), reply.size())) return;
    }
    net::Frame ignored;
    while (read_frame(fd, carry, &ignored)) {
    }
  }};
  net::ClientLink link{{"127.0.0.1", peer.port()}, net::kBusMagic};
  link.start([](const net::Frame&) {}, [] {});

  std::atomic<std::size_t> matched{0};
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < kRequests; ++i) {
    callers.emplace_back([&, i] {
      const auto channel = link.next_channel();
      const std::string body = "request-" + std::to_string(i);
      const auto reply = link.request(
          channel, net::encode_frame(net::Frame{net::FrameType::kQueueStats,
                                                channel, body}));
      if (reply.channel == channel && reply.payload == body) {
        matched.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(matched.load(), kRequests);
  link.close();
}

TEST(ClientLink, PeerHangupFailsEveryPendingRequestAndFiresDownOnce) {
  constexpr std::size_t kRequests = 4;
  FakePeer peer{[](int fd, std::string& carry) {
    // Take every request, answer none, hang up.
    std::vector<net::Frame> requests;
    (void)read_requests(fd, carry, kRequests, &requests);
  }};
  std::atomic<int> downs{0};
  std::atomic<std::size_t> failed{0};
  {
    net::ClientLink link{{"127.0.0.1", peer.port()}, net::kBusMagic};
    link.start([](const net::Frame&) {}, [&] { downs.fetch_add(1); });
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < kRequests; ++i) {
      callers.emplace_back([&] {
        const auto channel = link.next_channel();
        try {
          (void)link.request(channel, net::encode_frame(net::Frame{
                                          net::FrameType::kQueueStats,
                                          channel, "stats"}));
        } catch (const net::LinkError&) {
          failed.fetch_add(1);
        }
      });
    }
    for (auto& caller : callers) caller.join();
    EXPECT_FALSE(link.alive());
    link.close();  // Closing a dead link reports nothing new.
  }  // Joins the reader: every down report has fired by now.
  EXPECT_EQ(failed.load(), kRequests);
  EXPECT_EQ(downs.load(), 1);
}

TEST(ClientLink, ClusterMagicIsRefusedByBusServer) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();
  net::ClientLinkOptions options;
  options.request_timeout_ms = 2000;
  EXPECT_THROW(net::ClientLink({"127.0.0.1", server.port()},
                               net::kClusterMagic, options),
               net::LinkError);
  server.stop();
}

TEST(BusServerHandshake, VersionOneHelloIsRefusedAndClosed) {
  bus::Broker broker;
  net::BusServer server{broker};
  server.start();
  // What version-1 clients sent: magic + version 1, with and without
  // the feature bitmap.
  std::string plain{net::kBusMagic};
  net::put_u16(plain, 1);
  std::string with_features = plain;
  net::put_u32(with_features, 7);
  for (const auto& payload : {plain, with_features}) {
    auto fd = common::connect_tcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.valid());
    const auto hello =
        net::encode_frame(net::Frame{net::FrameType::kHello, 1, payload});
    ASSERT_TRUE(common::send_all(fd.get(), hello.data(), hello.size()));
    std::string carry;
    net::Frame reply;
    ASSERT_TRUE(read_frame(fd.get(), carry, &reply));
    EXPECT_EQ(reply.type, net::FrameType::kError);
    // The server hangs up after the error.
    char chunk[64];
    std::size_t got = 0;
    EXPECT_EQ(common::recv_some(fd.get(), chunk, sizeof chunk, 5000, &got),
              common::RecvStatus::kClosed);
  }
  server.stop();
}
