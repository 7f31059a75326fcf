#pragma once
// Durable-queue spool format v2 (DESIGN.md "Delivery guarantees").
//
// A spool is an append-only text file, one record per line:
//
//   stampede-spool v2          -- header, first line
//   M <seq> <key> <body>       -- a persistent message, fields escaped
//   M <seq> <key> <body> <traceparent> <wall>
//                              -- same, from a traced publish: the
//                                 message's trace context and anchored
//                                 publish wall time, so redeliveries
//                                 after a broker restart keep their
//                                 trace (DESIGN.md §11)
//   A <seq>                    -- acknowledgment of message <seq>
//
// Sequence numbers are per-queue, strictly increasing and never reused,
// so recovery replays exactly the M records without a matching A — the
// unacked suffix of the queue's history, not the whole history. The
// broker compacts the file (rewrites it with only live messages) when
// the acked prefix grows past QueueOptions::spool_compact_threshold.
//
// Field escaping is nl::escape_value's quoting extended with \n / \r
// escapes so bodies containing newlines stay one physical line; for
// newline-free values the encoding is byte-identical to
// nl::escape_value (test_properties holds that equivalence).
//
// A file whose first line is not the header is corrupt: recovery
// throws, like any other mid-file damage.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace stampede::bus::spool {

inline constexpr std::string_view kHeader = "stampede-spool v2";

struct MessageRecord {
  std::uint64_t seq = 0;
  std::string routing_key;
  std::string body;
  // Optional trailing trace fields; empty/zero on untraced messages and
  // on records written before distributed tracing existed.
  std::string traceparent;
  double published_wall = 0.0;
};

struct AckRecord {
  std::uint64_t seq = 0;
};

struct RecordError {
  std::string reason;
};

using Record = std::variant<MessageRecord, AckRecord, RecordError>;

/// Escapes one field for a spool record: nl::escape_value quoting plus
/// \n / \r escapes (line-safe for any input).
[[nodiscard]] std::string encode_field(std::string_view value);

/// Inverse of encode_field over one field of `rest`; consumes the field
/// and its trailing separator space. Sets `ok` false on an unterminated
/// quote (a torn record).
[[nodiscard]] std::string decode_field(std::string_view& rest, bool& ok);

/// The trace fields are appended only when `traceparent` is non-empty,
/// so untraced messages encode byte-identically to earlier releases.
[[nodiscard]] std::string encode_message(std::uint64_t seq,
                                         std::string_view routing_key,
                                         std::string_view body,
                                         std::string_view traceparent = {},
                                         double published_wall = 0.0);
[[nodiscard]] std::string encode_ack(std::uint64_t seq);

/// Decodes one spool line. RecordError for anything malformed (unknown
/// marker, bad sequence number, unterminated quote, missing fields).
[[nodiscard]] Record decode_record(std::string_view line);

struct RecoverResult {
  std::vector<MessageRecord> live;  ///< Unacked messages, ascending seq.
  std::uint64_t next_seq = 1;       ///< First unused sequence number.
  std::uint64_t messages = 0;       ///< M records read.
  std::uint64_t acks = 0;           ///< A records read.
  std::uint64_t truncated = 0;      ///< Torn trailing records discarded.
};

/// Reads a spool file. A malformed *final* record — the torn line a
/// crash mid-append leaves behind — is discarded and counted, mirroring
/// WAL recovery; a missing header or a malformed record followed by
/// valid ones throws common::BusError. A missing file recovers as empty.
[[nodiscard]] RecoverResult recover_file(const std::string& path);

/// Atomically rewrites `path` as a v2 spool holding exactly `live`
/// (write to `<path>.tmp`, then rename over).
void rewrite_file(const std::string& path,
                  const std::vector<MessageRecord>& live);

}  // namespace stampede::bus::spool
