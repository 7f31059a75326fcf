#pragma once
// cluster::Router — the client-side brain of the distributed archive
// (DESIGN.md §14).
//
// Owns the shard map and one net::ClientLink per placement. Two faces:
//
//   Ingest (loader::EventSink): the dispatcher thread routes each BP
//   event with the SAME WorkflowRouteMap + FNV-1a hash a local
//   ShardedLoader uses (so a fleet archive is byte-identical to the
//   local one), batches per shard into kClusterApply frames, and
//   tracks every in-flight event until the shard host acks its commit.
//   Bus ack-tags release only then — ack-after-remote-commit. The
//   in-flight window is bounded; process() blocks at the cap.
//
//   Query (query::ShardBackend via backend()): QueryExecutor's
//   scatter-gather machinery runs unchanged — partials execute
//   remotely via kClusterQuery, the merge/tail runs here, and the
//   version-keyed QueryCache stamps come from kClusterVersions.
//
// Failover: when a placement's link dies and the placement has a
// follower, the router connects to the follower, sends kClusterPromote
// (the follower recovers the replicated WALs), then re-sends every
// un-acked event for those shards in original order with
// redelivered=true — the loader's archive-probing dedup makes the
// replay idempotent. One failover per placement; losing the promoted
// follower too is fatal.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/shard_map.hpp"
#include "cluster/wire.hpp"
#include "loader/event_sink.hpp"
#include "loader/route_map.hpp"
#include "net/client_link.hpp"
#include "query/shard_backend.hpp"

namespace stampede::cluster {

struct RouterOptions {
  /// Connect/backoff/request timing of each link to a shard host. The
  /// in-flight window, apply batch size and drain timeout are constants
  /// in router.cpp.
  net::ClientLink::Options link;
};

class Router : public loader::EventSink {
 public:
  /// Connects to every placement's primary (bounded jittered retries
  /// per link). Throws net::LinkError when any host stays unreachable.
  explicit Router(ShardMap map, RouterOptions options = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // -- loader::EventSink (ONE dispatcher thread) ---------------------------

  bool process(const nl::LogRecord& record,
               const telemetry::TraceStamps* trace = nullptr,
               bool redelivered = false, std::uint64_t ack_tag = 0) override;
  void set_ack_callback(std::function<void(std::uint64_t)> cb) override;
  void flush_hint() override;
  /// Flushes, nudges the hosts, and blocks until every in-flight event
  /// is acked and every ack callback for them has returned (driving
  /// failover if a host dies meanwhile). Throws ClusterError when the
  /// fleet cannot drain within the timeout.
  void finish() override;

  // -- query face (any thread) ---------------------------------------------

  /// ShardBackend over the fleet; hand to query::QueryInterface /
  /// QueryExecutor. Valid for the router's lifetime.
  [[nodiscard]] const query::ShardBackend& backend() const noexcept {
    return backend_;
  }

  /// Remote loader statistics of one shard (kClusterStats).
  [[nodiscard]] HostShardStats remote_stats(std::size_t shard);

  // -- health --------------------------------------------------------------

  struct PlacementStatus {
    HostAddr addr;             ///< Current primary (follower after failover).
    std::vector<std::size_t> shards;
    bool connected = false;
    bool failed_over = false;
  };
  [[nodiscard]] std::vector<PlacementStatus> status() const;
  /// Every placement link alive — the /readyz condition.
  [[nodiscard]] bool all_connected() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return map_.total_shards();
  }
  [[nodiscard]] std::size_t inflight() const;

 private:
  struct Peer {
    Placement placement;
    std::unique_ptr<net::ClientLink> link;
    bool failed_over = false;
    std::mutex failover_mutex;  ///< Serializes do_failover per peer.
  };

  struct InFlight {
    nl::LogRecord record;
    bool redelivered = false;
    std::size_t shard = 0;
    std::uint64_t bus_tag = 0;
  };

  class RemoteBackend : public query::ShardBackend {
   public:
    explicit RemoteBackend(Router& router) : router_(&router) {}
    [[nodiscard]] std::size_t shard_count() const override;
    [[nodiscard]] db::ResultSet execute_on(std::size_t shard,
                                           const db::Select& select)
        const override;
    [[nodiscard]] std::vector<std::uint64_t> table_versions(
        const std::vector<std::string>& names) const override;

   private:
    Router* router_;
  };

  /// Connects and starts a link to `addr` whose acks feed on_ack_frame.
  [[nodiscard]] std::unique_ptr<net::ClientLink> connect(const HostAddr& addr);
  /// Closes every link and joins its reader.
  void close_links() noexcept;
  void on_ack_frame(const net::Frame& frame);
  /// Dead link → promote the follower and replay un-acked events.
  /// Throws ClusterError when no failover path remains.
  void ensure_alive(Peer& peer);
  void do_failover(Peer& peer);
  void flush_shard(std::size_t shard);
  void send_flush_hints();
  [[nodiscard]] net::Frame request_on(std::size_t shard,
                                      const std::function<std::string(
                                          std::uint32_t channel)>& build);

  ShardMap map_;
  RouterOptions options_;
  std::vector<std::unique_ptr<Peer>> peers_;
  RemoteBackend backend_{*this};

  // Dispatcher-thread-only routing state.
  loader::WorkflowRouteMap route_map_;
  bool finished_ = false;

  /// Per-shard pending apply batches. Mutex-guarded (not dispatcher-
  /// only) because a failover triggered from a query thread drains the
  /// affected shards' unsent batches into its replay.
  std::mutex batches_mutex_;
  std::unordered_map<std::size_t, std::vector<ApplyItem>> batches_;

  // Shared in-flight window. std::map: iteration order == wire-tag
  // order == original dispatch order, which is what failover replays.
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::map<std::uint64_t, InFlight> inflight_;
  std::uint64_t next_tag_ = 1;
  /// Ack frames whose bus-tag callbacks are still running; finish()
  /// waits for zero so no callback outlives the drain.
  std::size_t ack_callbacks_running_ = 0;

  std::mutex ack_cb_mutex_;
  std::function<void(std::uint64_t)> ack_cb_;
};

}  // namespace stampede::cluster
