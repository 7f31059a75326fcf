#pragma once
// Wire protocol of the networked message bus (DESIGN.md "Network
// substrate") and of the cluster archive that rides it (§14).
//
// Every exchange between a net::ClientLink and a server (net::BusServer,
// cluster::ShardHost) is a length-prefixed binary frame:
//
//   u32  length   -- bytes after this field (big-endian, bounded)
//   u8   type     -- FrameType
//   u32  channel  -- request/reply correlation id (0 = unsolicited)
//   ...  payload  -- type-specific, see the encode_* builders
//
// Strings are u32-length-prefixed raw bytes — no escaping, any byte
// value round-trips (the BP bodies and header values this carries may
// contain newlines, quotes and NULs). A connection opens with a
// versioned handshake: kHello carries a magic naming the service
// (kBusMagic or kClusterMagic) and the protocol version; the server
// answers kHelloOk, or kError and a close for any other magic or
// version, so incompatible peers fail loudly instead of misparsing.
// There is one wire per version: no negotiated variants.
//
// Request/reply ops (declare/bind/consume/stats) echo the request's
// nonzero channel in the reply; publish/ack/nack are fire-and-forget
// like their AMQP namesakes; kDeliver frames with channel 0 are
// unsolicited pushes for a consumed queue. kPublish, kDeliver and kAck
// each carry a counted list, so one frame holds every message a sender
// has ready. Either side sends kHeartbeat on an idle connection; a peer
// silent past the server's idle timeout is dropped.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bus/ibus.hpp"
#include "bus/message.hpp"
#include "bus/queue.hpp"

namespace stampede::net {

inline constexpr std::uint16_t kProtocolVersion = 2;
/// HELLO magics: each server accepts only its own service's.
inline constexpr std::string_view kBusMagic = "SBUS";
inline constexpr std::string_view kClusterMagic = "SCLU";
/// Upper bound on one frame's post-length bytes; a decoder seeing a
/// larger length treats the stream as corrupt and drops the connection.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

// Contiguous from 1 to kClusterStatsOk, so decode_frame's range check
// rejects every other type byte.
enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kOk = 3,
  kError = 4,
  kDeclareExchange = 5,
  kDeclareQueue = 6,
  kBind = 7,
  kPublish = 8,
  kConsume = 9,
  kDeliver = 10,
  kAck = 11,
  kNack = 12,
  kQueueStats = 13,
  kQueueStatsOk = 14,
  kHeartbeat = 15,
  // Distributed archive (kClusterMagic connections; payload codecs live
  // in cluster/wire.hpp — the cluster layer owns the archive-specific
  // currency, this enum just reserves the types).
  kClusterApply = 16,         ///< Router→host: batch of BP events for a shard.
  kClusterAck = 17,           ///< Host→router: committed apply tags (chan 0).
  kClusterQuery = 18,         ///< Router→host: one Select against one shard.
  kClusterResult = 19,        ///< Host→router: the ResultSet reply.
  kClusterVersions = 20,      ///< Router→host: table-version stamp request.
  kClusterVersionsOk = 21,    ///< Host→router: the version vector reply.
  kClusterReplicate = 22,     ///< Primary→follower: WAL bytes at an offset.
  kClusterReplicateAck = 23,  ///< Follower→primary: bytes durable through.
  kClusterPromote = 24,       ///< Router→follower: open shards, serve them.
  kClusterStats = 25,         ///< Router→host: loader-stats request.
  kClusterStatsOk = 26,       ///< Host→router: the LoaderStats reply.
};

/// Human-readable frame-type slug ("publish", "deliver", ...) — the
/// telemetry label for stampede_net_frames_total{type=...}.
[[nodiscard]] std::string_view frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t channel = 0;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Primitive writers (append to `out`, big-endian)

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
void put_string(std::string& out, std::string_view v);

/// Bounds-checked sequential reader over a frame payload. Any overrun
/// latches ok() false and yields zero values; callers check ok() once
/// at the end instead of after every field.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte was consumed and nothing overran.
  [[nodiscard]] bool complete() const noexcept {
    return ok_ && pos_ == data_.size();
  }

 private:
  [[nodiscard]] bool take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frame codec

/// Serializes a frame (length prefix included). Observes the encode
/// histogram and per-type frame counter.
[[nodiscard]] std::string encode_frame(const Frame& frame);

enum class DecodeStatus {
  kNeedMore,  ///< Buffer holds a partial frame; read more bytes.
  kFrame,     ///< One frame decoded; `consumed` bytes eaten.
  kError,     ///< Corrupt stream (oversize/unknown type); drop the peer.
};

/// Decodes the first complete frame out of `buffer`. On kFrame the
/// caller erases `consumed` leading bytes and dispatches `out`.
[[nodiscard]] DecodeStatus decode_frame(std::string_view buffer,
                                        std::size_t& consumed, Frame& out,
                                        std::string* error = nullptr);

// ---------------------------------------------------------------------------
// bus::Message codec (the payload core of kPublish / kDeliver)

/// Wire form: routing_key, body, headers (count + key/value pairs),
/// published_at, persistent flag, redelivery count, then the trace
/// suffix: trace id (2×u64), span id, flags, and the anchored
/// publish/enqueue/spool wall stamps (3×f64) — zeros on untraced
/// messages, so framing stays deterministic. Broker-internal fields
/// (spool_seq) and process-local trace stamps (steady-clock seconds,
/// meaningless across hosts) do not travel.
void encode_message(std::string& out, const bus::Message& message);
[[nodiscard]] bus::Message decode_message(PayloadReader& reader);

// ---------------------------------------------------------------------------
// Payload builders + parsers per frame type. Builders return the full
// encoded frame; parse_* return false on a malformed payload.

/// HELLO: `magic` + kProtocolVersion.
[[nodiscard]] std::string encode_hello(std::uint32_t channel,
                                       std::string_view magic);
/// Server half of the handshake, shared by every server: the reply to a
/// connection's first frame. HELLO_OK when `frame` is a HELLO carrying
/// `magic` and kProtocolVersion (`*accepted` true); otherwise a kError
/// frame naming the mismatch, after which the server closes.
[[nodiscard]] std::string answer_hello(const Frame& frame,
                                       std::string_view magic,
                                       bool* accepted);
/// HELLO_OK: the server's protocol version.
[[nodiscard]] bool parse_hello_ok(const Frame& frame, std::uint16_t* version);
[[nodiscard]] std::string encode_ok(std::uint32_t channel);
[[nodiscard]] std::string encode_error(std::uint32_t channel,
                                       std::string_view reason);
[[nodiscard]] std::string encode_heartbeat();

[[nodiscard]] std::string encode_declare_exchange(std::uint32_t channel,
                                                  std::string_view name,
                                                  bus::ExchangeType type);
[[nodiscard]] bool parse_declare_exchange(const Frame& frame,
                                          std::string* name,
                                          bus::ExchangeType* type);

[[nodiscard]] std::string encode_declare_queue(
    std::uint32_t channel, std::string_view name,
    const bus::QueueOptions& options);
[[nodiscard]] bool parse_declare_queue(const Frame& frame, std::string* name,
                                       bus::QueueOptions* options);

[[nodiscard]] std::string encode_bind(std::uint32_t channel,
                                      std::string_view queue,
                                      std::string_view exchange,
                                      std::string_view binding_key);
[[nodiscard]] bool parse_bind(const Frame& frame, std::string* queue,
                              std::string* exchange,
                              std::string* binding_key);

[[nodiscard]] std::string encode_consume(std::uint32_t channel,
                                         std::string_view queue);
[[nodiscard]] bool parse_consume(const Frame& frame, std::string* queue);

[[nodiscard]] std::string encode_nack(std::uint32_t channel,
                                      std::string_view queue,
                                      std::uint64_t delivery_tag,
                                      bool requeue);
[[nodiscard]] bool parse_nack(const Frame& frame, std::string* queue,
                              std::uint64_t* delivery_tag, bool* requeue);

[[nodiscard]] std::string encode_queue_stats(std::uint32_t channel,
                                             std::string_view queue);
[[nodiscard]] bool parse_queue_stats(const Frame& frame, std::string* queue);

[[nodiscard]] std::string encode_queue_stats_ok(std::uint32_t channel,
                                                const bus::QueueStats& stats);
[[nodiscard]] bool parse_queue_stats_ok(const Frame& frame,
                                        bus::QueueStats* stats);

// ---------------------------------------------------------------------------
// Message frames. Each payload is `u32 count` followed by `count`
// entries, so a lone message travels as a list of one.

struct WirePublish {
  std::string exchange;
  bus::Message message;
};
[[nodiscard]] std::string encode_publish(
    std::uint32_t channel, const std::vector<WirePublish>& entries);
[[nodiscard]] bool parse_publish(const Frame& frame,
                                 std::vector<WirePublish>* out);

struct WireDelivery {
  std::string queue;
  std::uint64_t delivery_tag = 0;
  bool redelivered = false;
  std::string consumer_tag;
  std::string exchange;
  bus::Message message;
};
[[nodiscard]] std::string encode_deliver(
    std::uint32_t channel, std::string_view queue,
    const std::vector<bus::Delivery>& deliveries);
[[nodiscard]] bool parse_deliver(const Frame& frame,
                                 std::vector<WireDelivery>* out);

struct WireAck {
  std::string queue;
  std::uint64_t delivery_tag = 0;
};
[[nodiscard]] std::string encode_ack(std::uint32_t channel,
                                     const std::vector<WireAck>& acks);
[[nodiscard]] bool parse_ack(const Frame& frame, std::vector<WireAck>* out);

}  // namespace stampede::net
