#include "net/frame.hpp"

#include <bit>
#include <cstring>

#include "telemetry/metrics.hpp"

namespace stampede::net {

namespace {

/// Codec-level instruments, resolved once. Frame counters are per type
/// (kMaxFrameType slots), matching the exposition series
/// stampede_net_frames_total{type="..."}.
constexpr int kMaxFrameType = static_cast<int>(FrameType::kClusterStatsOk);

struct FrameTelemetry {
  telemetry::Histogram& encode_latency = telemetry::registry().histogram(
      "stampede_net_frame_encode_seconds", {1e-8, 4.0, 16});
  telemetry::Histogram& decode_latency = telemetry::registry().histogram(
      "stampede_net_frame_decode_seconds", {1e-8, 4.0, 16});
  telemetry::Counter* by_type[kMaxFrameType + 1] = {};

  FrameTelemetry() {
    for (int t = 1; t <= kMaxFrameType; ++t) {
      by_type[t] = &telemetry::registry().counter(telemetry::labeled(
          "stampede_net_frames_total", "type",
          frame_type_name(static_cast<FrameType>(t))));
    }
  }
};

FrameTelemetry& frame_telemetry() {
  static FrameTelemetry instance;
  return instance;
}

void count_frame(FrameType type) {
  const auto t = static_cast<std::uint8_t>(type);
  if (t >= 1 && t <= kMaxFrameType) frame_telemetry().by_type[t]->inc();
}

}  // namespace

std::string_view frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloOk: return "hello_ok";
    case FrameType::kOk: return "ok";
    case FrameType::kError: return "error";
    case FrameType::kDeclareExchange: return "declare_exchange";
    case FrameType::kDeclareQueue: return "declare_queue";
    case FrameType::kBind: return "bind";
    case FrameType::kPublish: return "publish";
    case FrameType::kConsume: return "consume";
    case FrameType::kDeliver: return "deliver";
    case FrameType::kAck: return "ack";
    case FrameType::kNack: return "nack";
    case FrameType::kQueueStats: return "queue_stats";
    case FrameType::kQueueStatsOk: return "queue_stats_ok";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kClusterApply: return "cluster_apply";
    case FrameType::kClusterAck: return "cluster_ack";
    case FrameType::kClusterQuery: return "cluster_query";
    case FrameType::kClusterResult: return "cluster_result";
    case FrameType::kClusterVersions: return "cluster_versions";
    case FrameType::kClusterVersionsOk: return "cluster_versions_ok";
    case FrameType::kClusterReplicate: return "cluster_replicate";
    case FrameType::kClusterReplicateAck: return "cluster_replicate_ack";
    case FrameType::kClusterPromote: return "cluster_promote";
    case FrameType::kClusterStats: return "cluster_stats";
    case FrameType::kClusterStatsOk: return "cluster_stats_ok";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Primitives

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
  put_u8(out, static_cast<std::uint8_t>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.append(v);
}

bool PayloadReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t PayloadReader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t PayloadReader::u16() {
  const auto hi = u8();
  const auto lo = u8();
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint32_t PayloadReader::u32() {
  const auto hi = u16();
  const auto lo = u16();
  return (static_cast<std::uint32_t>(hi) << 16) | lo;
}

std::uint64_t PayloadReader::u64() {
  const auto hi = u32();
  const auto lo = u32();
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string value{data_.substr(pos_, len)};
  pos_ += len;
  return value;
}

// ---------------------------------------------------------------------------
// Frame codec

std::string encode_frame(const Frame& frame) {
  const double start = telemetry::trace_now();
  std::string out;
  out.reserve(4 + 1 + 4 + frame.payload.size());
  put_u32(out, static_cast<std::uint32_t>(1 + 4 + frame.payload.size()));
  put_u8(out, static_cast<std::uint8_t>(frame.type));
  put_u32(out, frame.channel);
  out.append(frame.payload);
  count_frame(frame.type);
  if (start > 0.0) {
    frame_telemetry().encode_latency.observe(telemetry::now() - start);
  }
  return out;
}

DecodeStatus decode_frame(std::string_view buffer, std::size_t& consumed,
                          Frame& out, std::string* error) {
  consumed = 0;
  if (buffer.size() < 4) return DecodeStatus::kNeedMore;
  PayloadReader head{buffer};
  const std::uint32_t length = head.u32();
  if (length < 5 || length > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(length) + " out of bounds";
    }
    return DecodeStatus::kError;
  }
  if (buffer.size() < 4u + length) return DecodeStatus::kNeedMore;
  const double start = telemetry::trace_now();
  const std::uint8_t type = head.u8();
  if (type < 1 || type > kMaxFrameType) {
    if (error != nullptr) {
      *error = "unknown frame type " + std::to_string(type);
    }
    return DecodeStatus::kError;
  }
  out.type = static_cast<FrameType>(type);
  out.channel = head.u32();
  out.payload.assign(buffer.substr(9, length - 5));
  consumed = 4u + length;
  if (start > 0.0) {
    frame_telemetry().decode_latency.observe(telemetry::now() - start);
  }
  return DecodeStatus::kFrame;
}

// ---------------------------------------------------------------------------
// Message codec

void encode_message(std::string& out, const bus::Message& message) {
  put_string(out, message.routing_key);
  put_string(out, message.body);
  put_u32(out, static_cast<std::uint32_t>(message.headers.size()));
  for (const auto& [key, value] : message.headers) {
    put_string(out, key);
    put_string(out, value);
  }
  put_f64(out, message.published_at);
  put_u8(out, message.persistent ? 1 : 0);
  put_u32(out, message.redeliveries);
  put_u64(out, message.trace_ctx.trace_hi);
  put_u64(out, message.trace_ctx.trace_lo);
  put_u64(out, message.trace_ctx.span_id);
  put_u8(out, message.trace_ctx.flags);
  put_f64(out, message.trace_published_wall);
  put_f64(out, message.trace_enqueued_wall);
  put_f64(out, message.trace_spooled_wall);
}

bus::Message decode_message(PayloadReader& reader) {
  bus::Message message;
  message.routing_key = reader.str();
  message.body = reader.str();
  const std::uint32_t headers = reader.u32();
  for (std::uint32_t i = 0; i < headers && reader.ok(); ++i) {
    std::string key = reader.str();
    message.headers[std::move(key)] = reader.str();
  }
  message.published_at = reader.f64();
  message.persistent = reader.u8() != 0;
  message.redeliveries = reader.u32();
  message.trace_ctx.trace_hi = reader.u64();
  message.trace_ctx.trace_lo = reader.u64();
  message.trace_ctx.span_id = reader.u64();
  message.trace_ctx.flags = reader.u8();
  message.trace_published_wall = reader.f64();
  message.trace_enqueued_wall = reader.f64();
  message.trace_spooled_wall = reader.f64();
  return message;
}

// ---------------------------------------------------------------------------
// Per-type builders/parsers

namespace {

std::string finish(FrameType type, std::uint32_t channel,
                   std::string payload) {
  return encode_frame(Frame{type, channel, std::move(payload)});
}

}  // namespace

std::string encode_hello(std::uint32_t channel, std::string_view magic) {
  std::string p;
  p.append(magic);
  put_u16(p, kProtocolVersion);
  return finish(FrameType::kHello, channel, std::move(p));
}

std::string answer_hello(const Frame& frame, std::string_view magic,
                         bool* accepted) {
  *accepted = false;
  const std::string_view payload{frame.payload};
  if (frame.type != FrameType::kHello || !payload.starts_with(magic)) {
    return encode_error(frame.channel, "expected " + std::string{magic} +
                                           " hello");
  }
  PayloadReader r{payload.substr(magic.size())};
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion || !r.complete()) {
    return encode_error(frame.channel,
                        "protocol version mismatch: server " +
                            std::to_string(kProtocolVersion) + ", client " +
                            std::to_string(version));
  }
  *accepted = true;
  std::string p;
  put_u16(p, kProtocolVersion);
  return finish(FrameType::kHelloOk, frame.channel, std::move(p));
}

bool parse_hello_ok(const Frame& frame, std::uint16_t* version) {
  PayloadReader r{frame.payload};
  *version = r.u16();
  return r.complete();
}

std::string encode_ok(std::uint32_t channel) {
  return finish(FrameType::kOk, channel, {});
}

std::string encode_error(std::uint32_t channel, std::string_view reason) {
  std::string p;
  put_string(p, reason);
  return finish(FrameType::kError, channel, std::move(p));
}

std::string encode_heartbeat() {
  return finish(FrameType::kHeartbeat, 0, {});
}

std::string encode_declare_exchange(std::uint32_t channel,
                                    std::string_view name,
                                    bus::ExchangeType type) {
  std::string p;
  put_string(p, name);
  put_u8(p, static_cast<std::uint8_t>(type));
  return finish(FrameType::kDeclareExchange, channel, std::move(p));
}

bool parse_declare_exchange(const Frame& frame, std::string* name,
                            bus::ExchangeType* type) {
  PayloadReader r{frame.payload};
  *name = r.str();
  const std::uint8_t t = r.u8();
  if (!r.complete() || t > 2) return false;
  *type = static_cast<bus::ExchangeType>(t);
  return true;
}

std::string encode_declare_queue(std::uint32_t channel, std::string_view name,
                                 const bus::QueueOptions& options) {
  std::string p;
  put_string(p, name);
  put_u8(p, static_cast<std::uint8_t>((options.durable ? 1 : 0) |
                                      (options.auto_delete ? 2 : 0)));
  put_u64(p, options.max_length);
  put_u64(p, options.max_redeliveries);
  put_string(p, options.dead_letter_queue);
  put_u64(p, options.spool_compact_threshold);
  return finish(FrameType::kDeclareQueue, channel, std::move(p));
}

bool parse_declare_queue(const Frame& frame, std::string* name,
                         bus::QueueOptions* options) {
  PayloadReader r{frame.payload};
  *name = r.str();
  const std::uint8_t flags = r.u8();
  options->durable = (flags & 1) != 0;
  options->auto_delete = (flags & 2) != 0;
  options->max_length = r.u64();
  options->max_redeliveries = r.u64();
  options->dead_letter_queue = r.str();
  options->spool_compact_threshold = r.u64();
  return r.complete();
}

std::string encode_bind(std::uint32_t channel, std::string_view queue,
                        std::string_view exchange,
                        std::string_view binding_key) {
  std::string p;
  put_string(p, queue);
  put_string(p, exchange);
  put_string(p, binding_key);
  return finish(FrameType::kBind, channel, std::move(p));
}

bool parse_bind(const Frame& frame, std::string* queue, std::string* exchange,
                std::string* binding_key) {
  PayloadReader r{frame.payload};
  *queue = r.str();
  *exchange = r.str();
  *binding_key = r.str();
  return r.complete();
}

std::string encode_consume(std::uint32_t channel, std::string_view queue) {
  std::string p;
  put_string(p, queue);
  return finish(FrameType::kConsume, channel, std::move(p));
}

bool parse_consume(const Frame& frame, std::string* queue) {
  PayloadReader r{frame.payload};
  *queue = r.str();
  return r.complete();
}

std::string encode_nack(std::uint32_t channel, std::string_view queue,
                        std::uint64_t delivery_tag, bool requeue) {
  std::string p;
  put_string(p, queue);
  put_u64(p, delivery_tag);
  put_u8(p, requeue ? 1 : 0);
  return finish(FrameType::kNack, channel, std::move(p));
}

bool parse_nack(const Frame& frame, std::string* queue,
                std::uint64_t* delivery_tag, bool* requeue) {
  PayloadReader r{frame.payload};
  *queue = r.str();
  *delivery_tag = r.u64();
  *requeue = r.u8() != 0;
  return r.complete();
}

std::string encode_queue_stats(std::uint32_t channel,
                               std::string_view queue) {
  std::string p;
  put_string(p, queue);
  return finish(FrameType::kQueueStats, channel, std::move(p));
}

bool parse_queue_stats(const Frame& frame, std::string* queue) {
  PayloadReader r{frame.payload};
  *queue = r.str();
  return r.complete();
}

std::string encode_queue_stats_ok(std::uint32_t channel,
                                  const bus::QueueStats& stats) {
  std::string p;
  put_u64(p, stats.enqueued);
  put_u64(p, stats.delivered);
  put_u64(p, stats.acked);
  put_u64(p, stats.requeued);
  put_u64(p, stats.redelivered);
  put_u64(p, stats.dead_lettered);
  put_u64(p, stats.dropped_overflow);
  put_u64(p, stats.depth);
  put_u64(p, stats.unacked);
  return finish(FrameType::kQueueStatsOk, channel, std::move(p));
}

bool parse_queue_stats_ok(const Frame& frame, bus::QueueStats* stats) {
  PayloadReader r{frame.payload};
  stats->enqueued = r.u64();
  stats->delivered = r.u64();
  stats->acked = r.u64();
  stats->requeued = r.u64();
  stats->redelivered = r.u64();
  stats->dead_lettered = r.u64();
  stats->dropped_overflow = r.u64();
  stats->depth = static_cast<std::size_t>(r.u64());
  stats->unacked = static_cast<std::size_t>(r.u64());
  return r.complete();
}

// ---------------------------------------------------------------------------
// Message frames

std::string encode_publish(std::uint32_t channel,
                           const std::vector<WirePublish>& entries) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    put_string(p, entry.exchange);
    encode_message(p, entry.message);
  }
  return finish(FrameType::kPublish, channel, std::move(p));
}

bool parse_publish(const Frame& frame, std::vector<WirePublish>* out) {
  PayloadReader r{frame.payload};
  const std::uint32_t count = r.u32();
  out->clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    WirePublish entry;
    entry.exchange = r.str();
    entry.message = decode_message(r);
    out->push_back(std::move(entry));
  }
  return r.complete() && out->size() == count;
}

std::string encode_deliver(std::uint32_t channel, std::string_view queue,
                           const std::vector<bus::Delivery>& deliveries) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(deliveries.size()));
  for (const auto& delivery : deliveries) {
    put_string(p, queue);
    put_u64(p, delivery.delivery_tag);
    put_u8(p, delivery.redelivered ? 1 : 0);
    put_string(p, delivery.consumer_tag);
    put_string(p, delivery.exchange);
    encode_message(p, delivery.message());
  }
  return finish(FrameType::kDeliver, channel, std::move(p));
}

bool parse_deliver(const Frame& frame, std::vector<WireDelivery>* out) {
  PayloadReader r{frame.payload};
  const std::uint32_t count = r.u32();
  out->clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    WireDelivery entry;
    entry.queue = r.str();
    entry.delivery_tag = r.u64();
    entry.redelivered = r.u8() != 0;
    entry.consumer_tag = r.str();
    entry.exchange = r.str();
    entry.message = decode_message(r);
    out->push_back(std::move(entry));
  }
  return r.complete() && out->size() == count;
}

std::string encode_ack(std::uint32_t channel,
                       const std::vector<WireAck>& acks) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(acks.size()));
  for (const auto& ack : acks) {
    put_string(p, ack.queue);
    put_u64(p, ack.delivery_tag);
  }
  return finish(FrameType::kAck, channel, std::move(p));
}

bool parse_ack(const Frame& frame, std::vector<WireAck>* out) {
  PayloadReader r{frame.payload};
  const std::uint32_t count = r.u32();
  out->clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    WireAck ack;
    ack.queue = r.str();
    ack.delivery_tag = r.u64();
    out->push_back(std::move(ack));
  }
  return r.complete() && out->size() == count;
}

}  // namespace stampede::net
