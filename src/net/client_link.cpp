#include "net/client_link.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <utility>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::net {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

/// Cluster links and bus clients keep their own retry series
/// (DESIGN.md §9, §14); the HELLO magic tells them apart.
telemetry::Counter& retry_counter(std::string_view magic) {
  static telemetry::Counter& cluster = telemetry::registry().counter(
      "stampede_cluster_connect_retries_total");
  static telemetry::Counter& bus = telemetry::registry().counter(
      "stampede_net_client_reconnect_attempts_total");
  return magic == kClusterMagic ? cluster : bus;
}

}  // namespace

ClientLink::ClientLink(common::HostAddr addr, std::string_view magic,
                       Options options, std::stop_token stop)
    : addr_(std::move(addr)), options_(options) {
  common::Rng jitter{options_.jitter_seed != 0 ? options_.jitter_seed
                                               : std::random_device{}()};
  int backoff_ms = options_.backoff_ms;
  for (int attempt = 1;; ++attempt) {
    fd_ = common::connect_tcp(addr_.host, addr_.port);
    if (fd_.valid() && handshake(magic, stop)) return;
    if (stop.stop_requested()) {
      throw LinkError{"link to " + addr_.to_string() + " stopped"};
    }
    if (options_.connect_attempts > 0 &&
        attempt >= options_.connect_attempts) {
      throw LinkError{"cannot reach " + addr_.to_string() + " after " +
                      std::to_string(attempt) + " attempts"};
    }
    retry_counter(magic).inc();
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(static_cast<std::int64_t>(
                           static_cast<double>(backoff_ms) *
                           jitter.uniform(0.8, 1.2)));
    // Sliced so a stop request does not wait out the whole backoff.
    for (auto now = Clock::now(); now < deadline && !stop.stop_requested();
         now = Clock::now()) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(deadline - now, 10ms));
    }
    backoff_ms = std::min(backoff_ms * 2, options_.max_backoff_ms);
  }
}

bool ClientLink::handshake(std::string_view magic,
                           const std::stop_token& stop) {
  const std::string hello = encode_hello(1, magic);
  if (!common::send_all(fd_.get(), hello.data(), hello.size())) return false;
  carry_.clear();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.request_timeout_ms);
  Frame reply;
  char chunk[4096];
  for (;;) {
    std::size_t consumed = 0;
    const auto status = decode_frame(carry_, consumed, reply);
    if (status == DecodeStatus::kFrame) {
      carry_.erase(0, consumed);
      break;
    }
    if (status == DecodeStatus::kError || stop.stop_requested() ||
        Clock::now() >= deadline) {
      return false;
    }
    std::size_t received = 0;
    switch (common::recv_some(fd_.get(), chunk, sizeof chunk, 100,
                              &received)) {
      case common::RecvStatus::kData:
        carry_.append(chunk, received);
        break;
      case common::RecvStatus::kTimeout:
        break;
      case common::RecvStatus::kClosed:
      case common::RecvStatus::kError:
        return false;
    }
  }
  std::uint16_t version = 0;
  if (reply.type != FrameType::kHelloOk || !parse_hello_ok(reply, &version) ||
      version != kProtocolVersion) {
    throw LinkError{"peer " + addr_.to_string() + " refused the " +
                    std::string{magic} + " handshake"};
  }
  return true;
}

ClientLink::~ClientLink() {
  close();
  if (reader_thread_.joinable()) reader_thread_.join();
}

void ClientLink::start(FrameHandler on_unsolicited, DownHandler on_down) {
  on_unsolicited_ = std::move(on_unsolicited);
  on_down_ = std::move(on_down);
  reader_thread_ = std::thread([this] { reader(); });
}

bool ClientLink::send(std::string_view bytes) {
  const std::scoped_lock lock{send_mutex_};
  if (down_.load()) return false;
  if (!common::send_all(fd_.get(), bytes.data(), bytes.size())) {
    close();
    return false;
  }
  return true;
}

std::uint32_t ClientLink::next_channel() {
  const std::scoped_lock lock{pending_mutex_};
  // Channel 0 is reserved for unsolicited frames; skip it on wrap.
  if (++next_channel_ == 0) ++next_channel_;
  return next_channel_;
}

Frame ClientLink::request(std::uint32_t channel, std::string_view bytes) {
  {
    const std::scoped_lock lock{pending_mutex_};
    pending_.try_emplace(channel);
  }
  if (!send(bytes)) {
    const std::scoped_lock lock{pending_mutex_};
    pending_.erase(channel);
    throw LinkError{addr_.to_string() + " is down"};
  }
  std::unique_lock lock{pending_mutex_};
  const auto slot = pending_.find(channel);
  pending_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.request_timeout_ms),
                       [&] { return slot->second.done || down_.load(); });
  const bool done = slot->second.done;
  Frame reply = std::move(slot->second.reply);
  pending_.erase(slot);
  lock.unlock();
  if (!done) {
    throw LinkError{"request to " + addr_.to_string() +
                    (down_.load() ? " failed (link down)" : " timed out")};
  }
  if (reply.type == FrameType::kError) {
    PayloadReader reader{reply.payload};
    const std::string reason = reader.str();
    throw RequestRejected{reader.ok() ? reason : "peer error"};
  }
  return reply;
}

void ClientLink::close() {
  {
    // Flipped under the waiters' mutex so no request() can check the
    // predicate, miss the flip and sleep out its timeout.
    const std::scoped_lock lock{pending_mutex_};
    down_.store(true);
  }
  fd_.shutdown_both();
  pending_cv_.notify_all();
}

void ClientLink::dispatch(const Frame& frame) {
  if (frame.channel != 0) {
    {
      const std::scoped_lock lock{pending_mutex_};
      const auto it = pending_.find(frame.channel);
      if (it == pending_.end()) return;  // Nobody waits (fire-and-forget).
      it->second.reply = frame;
      it->second.done = true;
    }
    pending_cv_.notify_all();
    return;
  }
  if (frame.type == FrameType::kHeartbeat) return;
  if (on_unsolicited_) on_unsolicited_(frame);
}

void ClientLink::read_frames() {
  std::string buffer = std::move(carry_);
  char chunk[64 * 1024];
  while (!down_.load()) {
    std::size_t offset = 0;
    for (;;) {
      std::size_t consumed = 0;
      Frame frame;
      const auto status = decode_frame(
          std::string_view{buffer}.substr(offset), consumed, frame);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError) return;
      offset += consumed;
      dispatch(frame);
    }
    buffer.erase(0, offset);
    std::size_t received = 0;
    switch (common::recv_some(fd_.get(), chunk, sizeof chunk, 100,
                              &received)) {
      case common::RecvStatus::kData:
        buffer.append(chunk, received);
        break;
      case common::RecvStatus::kTimeout:
        break;
      case common::RecvStatus::kClosed:
      case common::RecvStatus::kError:
        return;
    }
  }
}

void ClientLink::reader() {
  try {
    read_frames();
  } catch (...) {
    // An owner handler threw: the stream position is lost with it, so
    // the failure is reported the one way owners already handle — as
    // the loss of this link.
  }
  close();
  if (on_down_) on_down_();
}

}  // namespace stampede::net
