#pragma once
// Parallel loader lanes over a sharded archive (DESIGN.md §2, "Sharded
// archive").
//
// One dispatcher (the caller of process(), e.g. a QueuePump or file
// reader) routes events to N loader::Lanes; lane i owns shard i, its own
// orm::Session and identity caches, so lanes never contend on anything
// but the bounded hand-off queues. This class keeps only the routing,
// the skew gauge and the per-lane metrics. Ordering guarantees:
//
//   * Per workflow: sticky routing sends every event of a workflow to
//     one lane, and lanes are FIFO, so a workflow's events apply in
//     exactly the arrival order — same as the single loader.
//   * Per workflow *tree*: a sub-workflow is registered on its parent's
//     lane (via stampede.xwf.map.subwf_job, or its parent.xwf.id /
//     root.xwf.id attributes), so hierarchies stay co-located and
//     hierarchy queries (parent_wf_id / root_wf_id joins) resolve on a
//     single shard. Unattributed workflows route by hash of their own
//     UUID.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/uuid.hpp"
#include "db/sharded_database.hpp"
#include "loader/event_sink.hpp"
#include "loader/lane.hpp"
#include "loader/route_map.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/record.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace stampede::loader {

class ShardedLoader : public EventSink {
 public:
  /// The sharded database must already contain the Stampede schema
  /// (orm::create_stampede_schema). One lane is spawned per shard.
  explicit ShardedLoader(db::ShardedDatabase& database,
                         LoaderOptions options = {});

  ~ShardedLoader() override;

  ShardedLoader(const ShardedLoader&) = delete;
  ShardedLoader& operator=(const ShardedLoader&) = delete;

  /// Routes one event to its lane (blocking when the lane queue is
  /// full). Returns false after finish(). Call from ONE dispatcher
  /// thread only — routing state is not synchronized. `redelivered` and
  /// `ack_tag` forward to the lane's StampedeLoader::process (replay
  /// dedup + ack-after-commit).
  bool process(const nl::LogRecord& record,
               const telemetry::TraceStamps* trace = nullptr,
               bool redelivered = false, std::uint64_t ack_tag = 0) override;

  /// Forwarded to every lane loader. The callback runs on lane worker
  /// threads, so it must be thread-safe (Broker::ack is).
  void set_ack_callback(std::function<void(std::uint64_t)> callback) override;

  /// Asks every lane to commit pending rows and release acks once it
  /// drains its queue; the dispatcher calls this when the input stream
  /// goes idle (cheap: one marker item per lane).
  void flush_hint() override;

  /// Terminal: closes the lane queues, joins the workers and flushes
  /// every lane's session. Events offered afterwards are rejected.
  void finish() override;

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }

  /// Aggregate stats across lanes. Only exact after finish() (lanes
  /// still draining keep mutating their own counters).
  [[nodiscard]] LoaderStats stats() const;

  /// Per-lane stats; call after finish().
  [[nodiscard]] const LoaderStats& lane_stats(std::size_t lane) const;

  /// Lane (== shard) an already-routed workflow is pinned to.
  [[nodiscard]] std::optional<std::size_t> route_of(
      const common::Uuid& uuid) const;

  /// Resolved wf_id of a workflow UUID; call after finish().
  [[nodiscard]] std::optional<std::int64_t> wf_id(
      const common::Uuid& uuid) const;

 private:
  /// One lane plus the metrics the dispatcher keeps about it.
  struct LaneSlot {
    LaneSlot(db::StorageShard& shard, const LoaderOptions& options,
             std::size_t index);
    telemetry::Gauge& depth;        ///< stampede_loader_lane_depth{lane=i}
    telemetry::Counter& dispatched; ///< stampede_loader_lane_events_total
    Lane lane;                      ///< Started by ShardedLoader's ctor.
  };

  void update_skew();

  db::ShardedDatabase* db_;
  std::vector<std::unique_ptr<LaneSlot>> lanes_;
  /// Sticky tree-co-locating routes (shared logic with the cluster
  /// router — see route_map.hpp).
  WorkflowRouteMap route_map_;
  std::vector<std::uint64_t> lane_events_;  ///< Dispatcher-side, for skew.
  std::uint64_t dispatched_ = 0;
  telemetry::Gauge& skew_;  ///< stampede_loader_shard_skew_permille
  bool finished_ = false;
};

}  // namespace stampede::loader
