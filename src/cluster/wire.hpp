#pragma once
// Payload codecs for the distributed-archive frames (DESIGN.md §14).
//
// The net layer reserves FrameType::kCluster* and the kClusterMagic
// HELLO; everything archive-specific — db::Value, db::Select
// expression trees, db::ResultSet, nl::LogRecord, loader stats — is
// encoded here so the bus wire protocol never learns about the archive.
//
// Layout reuses the frame primitives (big-endian ints, u32-length
// strings). Values are tag-prefixed (null/int/real/text); doubles
// travel as raw IEEE-754 bit patterns so a timestamp round-trips
// bit-exactly — the byte-identity guarantee for distributed vs local
// renders depends on this. Expression trees nest; the decoder carries a
// depth guard so a hostile payload cannot blow the stack.

#include <cstdint>
#include <string>
#include <vector>

#include "db/query.hpp"
#include "loader/stampede_loader.hpp"
#include "net/frame.hpp"
#include "netlogger/record.hpp"

namespace stampede::cluster {

// ---------------------------------------------------------------------------
// Scalar / tree codecs (shared building blocks)

void encode_value(std::string& out, const db::Value& value);
[[nodiscard]] bool decode_value(net::PayloadReader& reader, db::Value* out);

void encode_expr(std::string& out, const db::Expr& expr);
/// Fails on malformed payloads and on trees nested deeper than 64.
[[nodiscard]] bool decode_expr(net::PayloadReader& reader, db::ExprPtr* out,
                               int depth = 0);

void encode_select(std::string& out, const db::Select& select);
[[nodiscard]] bool decode_select(net::PayloadReader& reader, db::Select* out);

void encode_result_set(std::string& out, const db::ResultSet& rs);
[[nodiscard]] bool decode_result_set(net::PayloadReader& reader,
                                     db::ResultSet* out);

void encode_record(std::string& out, const nl::LogRecord& record);
[[nodiscard]] bool decode_record(net::PayloadReader& reader,
                                 nl::LogRecord* out);

// ---------------------------------------------------------------------------
// kClusterApply / kClusterAck — the ingest path

/// One routed BP event. `ack_tag` is the router's wire tag (unique per
/// router connection); the host echoes it in kClusterAck once the
/// event's rows are durably committed on the shard.
struct ApplyItem {
  nl::LogRecord record;
  bool redelivered = false;
  std::uint64_t ack_tag = 0;
};

/// count == 0 is a flush hint: commit pending batches, release acks.
[[nodiscard]] std::string encode_cluster_apply(
    std::uint32_t channel, std::uint32_t shard,
    const std::vector<ApplyItem>& items);
[[nodiscard]] bool parse_cluster_apply(const net::Frame& frame,
                                       std::uint32_t* shard,
                                       std::vector<ApplyItem>* items);

[[nodiscard]] std::string encode_cluster_ack(
    const std::vector<std::uint64_t>& tags);
[[nodiscard]] bool parse_cluster_ack(const net::Frame& frame,
                                     std::vector<std::uint64_t>* tags);

// ---------------------------------------------------------------------------
// kClusterQuery / kClusterResult — the scatter-gather read path

[[nodiscard]] std::string encode_cluster_query(std::uint32_t channel,
                                               std::uint32_t shard,
                                               const db::Select& select);
[[nodiscard]] bool parse_cluster_query(const net::Frame& frame,
                                       std::uint32_t* shard,
                                       db::Select* select);

[[nodiscard]] std::string encode_cluster_result(std::uint32_t channel,
                                                const db::ResultSet& rs);
[[nodiscard]] bool parse_cluster_result(const net::Frame& frame,
                                        db::ResultSet* rs);

// ---------------------------------------------------------------------------
// kClusterVersions / kClusterVersionsOk — cache stamps for QueryCache

[[nodiscard]] std::string encode_cluster_versions(
    std::uint32_t channel, std::uint32_t shard,
    const std::vector<std::string>& tables);
[[nodiscard]] bool parse_cluster_versions(const net::Frame& frame,
                                          std::uint32_t* shard,
                                          std::vector<std::string>* tables);

[[nodiscard]] std::string encode_cluster_versions_ok(
    std::uint32_t channel, const std::vector<std::uint64_t>& versions);
[[nodiscard]] bool parse_cluster_versions_ok(
    const net::Frame& frame, std::vector<std::uint64_t>* versions);

// ---------------------------------------------------------------------------
// kClusterReplicate / kClusterReplicateAck — WAL streaming

/// `offset` is the byte position in the shard's WAL file where `bytes`
/// begins. offset == 0 means "resync from scratch" (the follower
/// truncates). The follower acks with the file size it has made
/// durable, which doubles as the next expected offset.
[[nodiscard]] std::string encode_cluster_replicate(std::uint32_t shard,
                                                   std::uint64_t offset,
                                                   std::string_view bytes);
[[nodiscard]] bool parse_cluster_replicate(const net::Frame& frame,
                                           std::uint32_t* shard,
                                           std::uint64_t* offset,
                                           std::string* bytes);

[[nodiscard]] std::string encode_cluster_replicate_ack(std::uint32_t shard,
                                                       std::uint64_t offset);
[[nodiscard]] bool parse_cluster_replicate_ack(const net::Frame& frame,
                                               std::uint32_t* shard,
                                               std::uint64_t* offset);

// ---------------------------------------------------------------------------
// kClusterPromote — failover: follower opens its replica WALs and serves

[[nodiscard]] std::string encode_cluster_promote(
    std::uint32_t channel, const std::vector<std::uint32_t>& shards);
[[nodiscard]] bool parse_cluster_promote(const net::Frame& frame,
                                         std::vector<std::uint32_t>* shards);

/// Per-shard recovery outcome, carried in the kOk reply.
struct PromoteResult {
  std::uint32_t shard = 0;
  std::uint64_t recovered_ops = 0;
  std::uint64_t truncated_records = 0;  ///< Torn trailing records dropped.
};

[[nodiscard]] std::string encode_cluster_promote_ok(
    std::uint32_t channel, const std::vector<PromoteResult>& results);
[[nodiscard]] bool parse_cluster_promote_ok(
    const net::Frame& frame, std::vector<PromoteResult>* results);

// ---------------------------------------------------------------------------
// kClusterStats / kClusterStatsOk — remote loader statistics

[[nodiscard]] std::string encode_cluster_stats(std::uint32_t channel,
                                               std::uint32_t shard);
[[nodiscard]] bool parse_cluster_stats(const net::Frame& frame,
                                       std::uint32_t* shard);

struct HostShardStats {
  loader::LoaderStats loader;
  std::uint64_t wal_truncated = 0;
};

[[nodiscard]] std::string encode_cluster_stats_ok(std::uint32_t channel,
                                                  const HostShardStats& stats);
[[nodiscard]] bool parse_cluster_stats_ok(const net::Frame& frame,
                                          HostShardStats* stats);

}  // namespace stampede::cluster
