#include "cluster/shard_host.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "db/sharded_database.hpp"
#include "orm/stampede_tables.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::cluster {
namespace {

struct HostTelemetry {
  telemetry::Counter& apply_frames =
      telemetry::registry().counter("stampede_cluster_host_apply_frames_total");
  telemetry::Counter& queries =
      telemetry::registry().counter("stampede_cluster_host_queries_total");
  telemetry::Counter& promotions =
      telemetry::registry().counter("stampede_cluster_host_promotions_total");
  telemetry::Counter& replication_bytes = telemetry::registry().counter(
      "stampede_cluster_replication_bytes_total");
  telemetry::Counter& replication_stalls = telemetry::registry().counter(
      "stampede_cluster_replication_stalls_total");
};

HostTelemetry& host_telemetry() {
  static HostTelemetry tele;
  return tele;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace

ShardHost::ShardHost(ShardHostOptions options)
    : options_(std::move(options)) {}

ShardHost::~ShardHost() {
  if (abandoned_.load()) return;  // kill() already tore everything down.
  stop();
}

ShardHost::Hosted& ShardHost::open_shard(std::size_t index) {
  auto hosted = std::make_unique<Hosted>();
  const std::string path = db::ShardedDatabase::shard_wal_path(
      options_.wal_base, index, options_.total_shards);
  hosted->db = std::make_unique<db::Database>(path);
  // Strided PKs: ids allocated here interleave exactly like shard
  // `index` of a local N-shard archive — byte-identical WALs depend
  // on it, and shard_index_for_id() stays the owner inverse.
  hosted->db->set_pk_allocation(static_cast<std::int64_t>(index),
                                static_cast<std::int64_t>(
                                    options_.total_shards));
  orm::create_stampede_tables(*hosted->db);
  hosted->recovered_ops = hosted->db->recover();
  if (hosted->db->row_count("schema_info") == 0) {
    hosted->db->insert("schema_info",
                       {{"version", db::Value{orm::kSchemaVersion}}});
  }
  hosted->wal_offset.store(file_size_or_zero(path));
  Hosted* h = hosted.get();
  // Unbounded queue: handle_apply runs on the reactor and must never
  // block; the router's in-flight window bounds the backlog.
  hosted->lane = std::make_unique<loader::Lane>(
      *hosted->db, loader::LoaderOptions{}, /*capacity=*/0,
      [this, h] { flush_acks(*h); });
  hosted->lane->loader().set_ack_callback([h](std::uint64_t tag) {
    // Fires on the lane thread (inside process/flush); flushed to the
    // origin connection by flush_acks() right after.
    h->pending_acks.push_back(tag);
  });
  const std::scoped_lock lock{hosted_mutex_};
  return *hosted_.emplace(index, std::move(hosted)).first->second;
}

void ShardHost::start() {
  if (running_.exchange(true)) return;
  listen_fd_ = common::listen_tcp(options_.host, options_.port, 64, &port_);
  for (const std::size_t index : options_.shards) open_shard(index);
  start_replication();
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) hosted->lane->start();
  }
  loop_.start();
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.query_threads);
       ++i) {
    pool_.emplace_back([this] { pool_worker(); });
  }
  start_compactor();
  accept_ = std::make_unique<net::Acceptor>(
      loop_, listen_fd_.get(),
      [this](common::SocketFd client) { attach(std::move(client)); });
}

void ShardHost::start_compactor() {
  if (options_.compact_interval_ms == 0) return;
  std::vector<db::StorageShard*> shards;
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) shards.push_back(hosted->db.get());
  }
  if (shards.empty()) return;
  db::CompactorOptions copts;
  copts.interval_ms = options_.compact_interval_ms;
  const std::scoped_lock lock{compactor_mutex_};
  compactor_.reset();  // Join the old sweep before re-targeting shards.
  compactor_ = std::make_unique<db::Compactor>(std::move(shards), copts);
}

void ShardHost::start_replication() {
  if (!options_.follower_addr) return;
  repl_link_ = std::make_unique<net::ClientLink>(*options_.follower_addr,
                                                 net::kClusterMagic);
  repl_link_->start(
      [this](const net::Frame& frame) {
        if (frame.type != net::FrameType::kClusterReplicateAck) return;
        std::uint32_t shard = 0;
        std::uint64_t offset = 0;
        if (!parse_cluster_replicate_ack(frame, &shard, &offset)) return;
        const std::scoped_lock lock{hosted_mutex_};
        const auto it = hosted_.find(shard);
        if (it == hosted_.end()) return;
        Hosted& h = *it->second;
        {
          const std::scoped_lock repl_lock{h.repl_mutex};
          if (offset > h.follower_acked.load()) h.follower_acked.store(offset);
        }
        h.repl_cv.notify_all();
      },
      [this] {
        repl_down_.store(true);
        // Wake every lane parked on a replication ack; they stop
        // gating (and count stalls) once the link is gone.
        const std::scoped_lock lock{hosted_mutex_};
        for (auto& [index, hosted] : hosted_) hosted->repl_cv.notify_all();
      });

  // Bootstrap: ship each shard's whole WAL from offset 0 (the follower
  // truncates and resyncs), then install the sink so every commit's
  // bytes stream incrementally. No writes can interleave here — lanes
  // and the acceptor have not started yet.
  const std::scoped_lock lock{hosted_mutex_};
  for (auto& [index, hosted] : hosted_) {
    const std::string path = db::ShardedDatabase::shard_wal_path(
        options_.wal_base, index, options_.total_shards);
    std::string content;
    if (std::ifstream in{path, std::ios::binary}; in) {
      content.assign(std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{});
    }
    if (!repl_link_->send(encode_cluster_replicate(
            static_cast<std::uint32_t>(index), 0, content))) {
      throw ClusterError{"cluster: replication bootstrap to " +
                         options_.follower_addr->to_string() + " failed"};
    }
    host_telemetry().replication_bytes.inc(content.size());
    Hosted* h = hosted.get();
    const auto shard_u32 = static_cast<std::uint32_t>(index);
    hosted->db->set_wal_sink([this, h, shard_u32](std::string_view bytes) {
      // Under the shard's exclusive lock: offsets are assigned in
      // exactly file order, and sends are serialized with commits.
      const std::uint64_t offset = h->wal_offset.fetch_add(bytes.size());
      if (repl_down_.load()) return;
      if (!repl_link_->send(
              encode_cluster_replicate(shard_u32, offset, bytes))) {
        repl_down_.store(true);
        return;
      }
      host_telemetry().replication_bytes.inc(bytes.size());
    });
  }
}

void ShardHost::flush_acks(Hosted& hosted) {
  if (hosted.pending_acks.empty()) return;
  // Semi-synchronous gate: an ack leaves this host only once the
  // follower has made the WAL bytes of the releasing commit durable.
  // A dead replication link stops gating (availability over the extra
  // copy); a slow one is bounded by the timeout and counted.
  if (repl_link_ && !repl_down_.load()) {
    const std::uint64_t target = hosted.wal_offset.load();
    std::unique_lock lock{hosted.repl_mutex};
    const bool acked = hosted.repl_cv.wait_for(
        lock, std::chrono::milliseconds(options_.replication_ack_timeout_ms),
        [&] {
          return hosted.follower_acked.load() >= target || repl_down_.load() ||
                 abandoned_.load();
        });
    if (!acked || (hosted.follower_acked.load() < target && !repl_down_.load()
                   && !abandoned_.load())) {
      host_telemetry().replication_stalls.inc();
    }
  }
  std::shared_ptr<net::Connection> origin;
  {
    const std::scoped_lock lock{hosted.origin_mutex};
    origin = hosted.origin.lock();
  }
  if (!origin) return;  // Keep tags until a router is attached again.
  if (origin->send(encode_cluster_ack(hosted.pending_acks))) {
    hosted.pending_acks.clear();
  }
}

void ShardHost::attach(common::SocketFd fd) {
  auto hconn = std::make_shared<HostConn>();
  hconn->conn = std::make_shared<net::Connection>(
      loop_, std::move(fd), net::Connection::Options{});
  {
    const std::scoped_lock lock{conns_mutex_};
    conns_[hconn.get()] = hconn;
  }
  hconn->conn->start(
      [this, hconn](std::string_view data) { return on_data(hconn, data); },
      [this, hconn] {
        const std::scoped_lock lock{conns_mutex_};
        conns_.erase(hconn.get());
      });
}

ShardHost::Hosted* ShardHost::find_hosted(const HostConn& hconn,
                                          std::uint32_t channel,
                                          std::uint32_t shard) {
  {
    const std::scoped_lock lock{hosted_mutex_};
    const auto it = hosted_.find(shard);
    if (it != hosted_.end()) return it->second.get();
  }
  hconn.conn->send(net::encode_error(
      channel, "shard " + std::to_string(shard) + " not hosted"));
  return nullptr;
}

std::size_t ShardHost::on_data(const std::shared_ptr<HostConn>& hconn,
                               std::string_view data) {
  if (hconn->dying) return data.size();
  std::size_t eaten = 0;
  while (!hconn->conn->closed()) {
    net::Frame frame;
    std::size_t consumed = 0;
    const auto status = net::decode_frame(data.substr(eaten), consumed, frame);
    if (status == net::DecodeStatus::kNeedMore) break;
    if (status == net::DecodeStatus::kError) {
      hconn->dying = true;
      hconn->conn->close();
      return data.size();
    }
    eaten += consumed;
    if (!handle_frame(hconn, frame)) {
      hconn->dying = true;
      hconn->conn->close_after_flush();
      eaten = data.size();
      break;
    }
  }
  return eaten;
}

bool ShardHost::handle_frame(const std::shared_ptr<HostConn>& hconn,
                             const net::Frame& frame) {
  using net::FrameType;
  if (!hconn->hello_done) {
    hconn->conn->send(
        net::answer_hello(frame, net::kClusterMagic, &hconn->hello_done));
    return hconn->hello_done;
  }
  switch (frame.type) {
    case FrameType::kHeartbeat:
      return true;
    case FrameType::kClusterApply:
      handle_apply(hconn, frame);
      return true;
    case FrameType::kClusterQuery: {
      std::uint32_t shard = 0;
      auto select = std::make_shared<db::Select>(std::string{});
      if (!parse_cluster_query(frame, &shard, select.get())) {
        hconn->conn->send(net::encode_error(frame.channel, "bad query"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn, frame.channel, shard);
      if (hosted == nullptr) return true;
      answer_on_pool(*hconn, frame.channel,
                     [hosted, select, channel = frame.channel] {
                       host_telemetry().queries.inc();
                       return encode_cluster_result(
                           channel, hosted->db->execute(*select));
                     });
      return true;
    }
    case FrameType::kClusterVersions: {
      std::uint32_t shard = 0;
      auto tables = std::make_shared<std::vector<std::string>>();
      if (!parse_cluster_versions(frame, &shard, tables.get())) {
        hconn->conn->send(net::encode_error(frame.channel, "bad versions"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn, frame.channel, shard);
      if (hosted == nullptr) return true;
      answer_on_pool(*hconn, frame.channel,
                     [hosted, tables, channel = frame.channel] {
                       return encode_cluster_versions_ok(
                           channel, hosted->db->table_versions(*tables));
                     });
      return true;
    }
    case FrameType::kClusterStats: {
      std::uint32_t shard = 0;
      if (!parse_cluster_stats(frame, &shard)) {
        hconn->conn->send(net::encode_error(frame.channel, "bad stats"));
        return true;
      }
      Hosted* hosted = find_hosted(*hconn, frame.channel, shard);
      if (hosted == nullptr) return true;
      // Answered on the lane, behind every apply queued before it — the
      // reply counts them all, and the loader needs no lock.
      auto conn = hconn->conn;
      const std::uint32_t channel = frame.channel;
      const db::Database* db = hosted->db.get();
      hosted->lane->post([db, conn, channel](loader::StampedeLoader& l) {
        HostShardStats stats;
        stats.loader = l.stats();
        stats.wal_truncated = db->wal_truncated_records();
        conn->send(encode_cluster_stats_ok(channel, stats));
      });
      return true;
    }
    case FrameType::kClusterReplicate:
      handle_replicate(hconn, frame);
      return true;
    case FrameType::kClusterPromote:
      handle_promote(hconn, frame);
      return true;
    default:
      hconn->conn->send(
          net::encode_error(frame.channel, "unexpected frame type"));
      return false;
  }
}

void ShardHost::handle_apply(const std::shared_ptr<HostConn>& hconn,
                             const net::Frame& frame) {
  std::uint32_t shard = 0;
  std::vector<ApplyItem> items;
  if (!parse_cluster_apply(frame, &shard, &items)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad apply"));
    return;
  }
  Hosted* hosted = find_hosted(*hconn, frame.channel, shard);
  if (hosted == nullptr) return;
  host_telemetry().apply_frames.inc();
  {
    const std::scoped_lock lock{hosted->origin_mutex};
    hosted->origin = hconn->conn;
  }
  if (items.empty()) hosted->lane->flush_hint();
  for (auto& item : items) {
    hosted->lane->push(std::move(item.record), nullptr, item.redelivered,
                       item.ack_tag);
  }
}

void ShardHost::handle_replicate(const std::shared_ptr<HostConn>& hconn,
                                 const net::Frame& frame) {
  std::uint32_t shard = 0;
  std::uint64_t offset = 0;
  std::string bytes;
  if (!parse_cluster_replicate(frame, &shard, &offset, &bytes)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad replicate"));
    return;
  }
  const std::scoped_lock lock{replicas_mutex_};
  Replica& replica = replicas_[shard];
  if (replica.path.empty()) {
    replica.path = db::ShardedDatabase::shard_wal_path(
        options_.wal_base, shard, options_.total_shards);
  }
  if (offset == 0) {
    // Resync from scratch (the primary's bootstrap on link connect).
    if (replica.out.is_open()) replica.out.close();
    replica.out.open(replica.path, std::ios::binary | std::ios::trunc);
    replica.size = 0;
  } else if (!replica.out.is_open()) {
    replica.size = file_size_or_zero(replica.path);
    replica.out.open(replica.path, std::ios::binary | std::ios::app);
  }
  if (replica.out.is_open() && offset <= replica.size) {
    // Skip the prefix we already hold (idempotent overlap), append the
    // rest. A gap (offset > size) cannot be filled — ack what we have
    // and let the primary's stream continue; v1 never reorders.
    const std::uint64_t skip = replica.size - offset;
    if (skip < bytes.size()) {
      replica.out.write(bytes.data() + skip,
                        static_cast<std::streamsize>(bytes.size() - skip));
      replica.out.flush();
      if (replica.out) {
        replica.size += bytes.size() - skip;
      } else {
        // Part of the bytes may have landed: the next append reopens
        // and re-reads the size from the file itself.
        replica.out.close();
      }
    }
  }
  hconn->conn->send(encode_cluster_replicate_ack(shard, replica.size));
}

void ShardHost::handle_promote(const std::shared_ptr<HostConn>& hconn,
                               const net::Frame& frame) {
  std::vector<std::uint32_t> shards;
  if (!parse_cluster_promote(frame, &shards)) {
    hconn->conn->send(net::encode_error(frame.channel, "bad promote"));
    return;
  }
  answer_on_pool(*hconn, frame.channel, [this, shards,
                                          channel = frame.channel] {
    std::vector<PromoteResult> results;
    for (const std::uint32_t shard : shards) {
      {
        // Stop appending replicated bytes; the file is now an archive.
        const std::scoped_lock lock{replicas_mutex_};
        const auto it = replicas_.find(shard);
        if (it != replicas_.end() && it->second.out.is_open()) {
          it->second.out.close();
        }
      }
      // Opens + recovers the replicated WAL: a torn trailing record
      // (primary died mid-append) is tolerated and counted, exactly
      // like a local restart; anything torn mid-file throws and the
      // promotion is refused.
      Hosted& hosted = open_shard(shard);
      hosted.lane->start();
      PromoteResult result;
      result.shard = shard;
      result.recovered_ops = hosted.recovered_ops;
      result.truncated_records = hosted.db->wal_truncated_records();
      results.push_back(result);
    }
    promoted_.store(true);
    start_compactor();  // The promoted shards now take live writes.
    host_telemetry().promotions.inc();
    return encode_cluster_promote_ok(channel, results);
  });
}

void ShardHost::answer_on_pool(const HostConn& hconn, std::uint32_t channel,
                               std::function<std::string()> reply) {
  pool_jobs_.push([conn = hconn.conn, channel, reply = std::move(reply)] {
    try {
      conn->send(reply());
    } catch (const std::exception& e) {
      conn->send(net::encode_error(channel, e.what()));
    }
  });
}

void ShardHost::pool_worker() {
  while (auto job = pool_jobs_.pop()) {
    (*job)();
  }
}

void ShardHost::stop() {
  const bool was_running = running_.exchange(false);
  {
    // Stop sweeping before the shards it targets start tearing down.
    const std::scoped_lock lock{compactor_mutex_};
    compactor_.reset();
  }
  if (accept_) {
    accept_->stop();
    accept_.reset();
  }
  {
    // Close connections first: a lane blocked in an ack send unblocks.
    const std::scoped_lock lock{conns_mutex_};
    for (auto& [ptr, hconn] : conns_) hconn->conn->close();
  }
  if (repl_link_) repl_link_->close();
  std::vector<Hosted*> lanes;
  {
    const std::scoped_lock lock{hosted_mutex_};
    for (auto& [index, hosted] : hosted_) lanes.push_back(hosted.get());
  }
  for (Hosted* hosted : lanes) {
    // kill() abandons: buffered-but-uncommitted batches are lost, like a
    // real crash; stop() drains each lane and flushes it.
    if (abandoned_.load()) {
      hosted->lane->abandon();
    } else {
      hosted->lane->finish();
    }
  }
  pool_jobs_.close();
  for (auto& worker : pool_) {
    if (worker.joinable()) worker.join();
  }
  pool_.clear();
  if (was_running) loop_.stop();
}

void ShardHost::kill() {
  abandoned_.store(true);
  stop();
}

}  // namespace stampede::cluster
