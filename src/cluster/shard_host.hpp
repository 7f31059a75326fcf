#pragma once
// cluster::ShardHost — one process serving a subset of the archive's
// StorageShards over the cluster wire protocol (DESIGN.md §14).
//
// Two modes, one process shape:
//
//   Active: each hosted shard opens its WAL (the same
//   `<base>.<index>` file a local ShardedDatabase would use, with the
//   same strided PK allocation), runs a loader::Lane — the same lane a
//   local ShardedLoader runs — and answers kClusterApply /
//   kClusterQuery / kClusterVersions / kClusterStats. Apply acks are
//   released only
//   after the shard's commit — and, when a follower is attached, only
//   after the follower acknowledged the WAL bytes of that commit
//   (semi-synchronous replication), so an acked event survives losing
//   the primary.
//
//   Follower: a passive replica. It appends kClusterReplicate WAL
//   bytes to its own copy of each shard's WAL file and acks the
//   durable size. On kClusterPromote it opens the replicated WALs
//   (recover() tolerates a torn trailing record, exactly like a local
//   restart; mid-file corruption refuses the promotion), starts lanes
//   and serves as the new primary for those shards.
//
// Threading: one EventLoop accepts (net::Acceptor) and owns all
// connection state; queries run on a small pool so a scan never stalls
// the loop. APPLY and STATS frames ride the shard's lane queue (never
// blocking the loop: the router's in-flight window bounds it), and acks
// flow back from the lane's after-step hook.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/shard_map.hpp"
#include "cluster/wire.hpp"
#include "common/concurrent_queue.hpp"
#include "common/socket.hpp"
#include "db/compactor.hpp"
#include "db/database.hpp"
#include "loader/lane.hpp"
#include "net/acceptor.hpp"
#include "net/client_link.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"

namespace stampede::cluster {

struct ShardHostOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; read back with port().
  /// Base WAL path; hosted shard i uses
  /// db::ShardedDatabase::shard_wal_path(wal_base, i, total_shards).
  std::string wal_base;
  /// Global shard indexes this host serves (active mode). Empty +
  /// follower=true starts a pure replica that learns its shards from
  /// the replication stream.
  std::vector<std::size_t> shards;
  /// Fleet-wide shard count (PK striding + WAL naming must match the
  /// equivalent local ShardedDatabase run).
  std::size_t total_shards = 1;
  /// Start as a passive replica (kClusterReplicate/kClusterPromote).
  bool follower = false;
  /// Stream each hosted shard's WAL to this replica (active mode).
  std::optional<HostAddr> follower_addr;
  /// How long an apply ack may wait on the follower's replication ack
  /// before it is released anyway (counted as a stall).
  int replication_ack_timeout_ms = 5000;
  std::size_t query_threads = 2;
  /// Background columnar compaction sweep period for hosted shards
  /// (db::Compactor with default SealOptions, DESIGN.md §15). 0
  /// disables compaction.
  std::uint64_t compact_interval_ms = 0;
};

class ShardHost {
 public:
  explicit ShardHost(ShardHostOptions options);
  ~ShardHost();

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// Opens the hosted shards (active mode), connects the replication
  /// link, then begins accepting. Throws on WAL corruption or an
  /// unreachable follower.
  void start();

  /// Graceful: drains lanes (final flush), closes connections, joins
  /// everything. Idempotent; the destructor calls it.
  void stop();

  /// Crash simulation for failover tests: abandons the lanes without
  /// flushing (buffered-but-uncommitted batches are lost, like a real
  /// crash) and drops every connection so peers see EOF. The process
  /// object stays destructible.
  void kill();

  [[nodiscard]] int port() const noexcept { return port_; }
  /// True once a follower received a promote (diagnostics).
  [[nodiscard]] bool promoted() const noexcept { return promoted_.load(); }

 private:
  /// One hosted (active) shard: archive + loader lane + replication
  /// bookkeeping.
  struct Hosted {
    std::unique_ptr<db::Database> db;
    std::uint64_t recovered_ops = 0;  ///< WAL ops replayed at open.
    std::unique_ptr<loader::Lane> lane;  ///< Unbounded queue; router caps.

    /// WAL byte offsets: size of the file (next append position) and
    /// the highest offset the follower has made durable.
    std::atomic<std::uint64_t> wal_offset{0};
    std::atomic<std::uint64_t> follower_acked{0};
    std::mutex repl_mutex;
    std::condition_variable repl_cv;

    /// Router connection to send acks to (last one that applied).
    std::mutex origin_mutex;
    std::weak_ptr<net::Connection> origin;

    /// Ack tags committed but not yet sent (filled by the loader's ack
    /// callback on the lane thread).
    std::vector<std::uint64_t> pending_acks;
  };

  /// One replicated (follower-mode) shard file.
  struct Replica {
    std::ofstream out;
    std::uint64_t size = 0;
    std::string path;
  };

  struct HostConn {
    std::shared_ptr<net::Connection> conn;
    bool hello_done = false;
    bool dying = false;
  };

  Hosted& open_shard(std::size_t index);
  void attach(common::SocketFd fd);
  /// The hosted shard, or nullptr after replying "shard N not hosted".
  Hosted* find_hosted(const HostConn& hconn, std::uint32_t channel,
                      std::uint32_t shard);
  std::size_t on_data(const std::shared_ptr<HostConn>& hconn,
                      std::string_view data);
  bool handle_frame(const std::shared_ptr<HostConn>& hconn,
                    const net::Frame& frame);
  void handle_apply(const std::shared_ptr<HostConn>& hconn,
                    const net::Frame& frame);
  void handle_replicate(const std::shared_ptr<HostConn>& hconn,
                        const net::Frame& frame);
  void handle_promote(const std::shared_ptr<HostConn>& hconn,
                      const net::Frame& frame);
  void flush_acks(Hosted& hosted);
  /// Sends `reply()` from a pool thread, or the error it throws.
  void answer_on_pool(const HostConn& hconn, std::uint32_t channel,
                      std::function<std::string()> reply);
  void start_replication();
  void start_compactor();
  void pool_worker();

  ShardHostOptions options_;
  common::SocketFd listen_fd_;
  int port_ = 0;

  net::EventLoop loop_;
  std::unique_ptr<net::Acceptor> accept_;
  std::atomic<bool> running_{false};
  std::atomic<bool> abandoned_{false};
  std::atomic<bool> promoted_{false};

  std::unordered_map<std::size_t, std::unique_ptr<Hosted>> hosted_;
  std::mutex hosted_mutex_;  ///< Guards the map shape (promote adds).

  std::unordered_map<std::size_t, Replica> replicas_;
  std::mutex replicas_mutex_;  ///< Loop appends vs. pool-thread promote.

  std::unique_ptr<net::ClientLink> repl_link_;
  std::atomic<bool> repl_down_{false};

  /// Sweeps hosted shards into columnar segments; rebuilt on promote.
  std::unique_ptr<db::Compactor> compactor_;
  std::mutex compactor_mutex_;

  common::ConcurrentQueue<std::function<void()>> pool_jobs_{0};
  std::vector<std::thread> pool_;

  std::mutex conns_mutex_;
  std::unordered_map<HostConn*, std::shared_ptr<HostConn>> conns_;
};

}  // namespace stampede::cluster
