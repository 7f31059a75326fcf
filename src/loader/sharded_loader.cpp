#include "loader/sharded_loader.hpp"

#include <algorithm>
#include <cmath>

namespace stampede::loader {

namespace {
/// Depth of each lane's hand-off queue; the dispatcher blocks when a
/// lane falls this far behind (backpressure).
constexpr std::size_t kLaneQueueCapacity = 4096;
}  // namespace

ShardedLoader::LaneSlot::LaneSlot(db::StorageShard& shard,
                                  const LoaderOptions& options,
                                  std::size_t index)
    : depth(telemetry::registry().gauge(telemetry::labeled(
          "stampede_loader_lane_depth", "lane", std::to_string(index)))),
      dispatched(telemetry::registry().counter(telemetry::labeled(
          "stampede_loader_lane_events_total", "lane",
          std::to_string(index)))),
      lane(shard, options, kLaneQueueCapacity,
           [this] { depth.set(static_cast<std::int64_t>(lane.depth())); }) {}

ShardedLoader::ShardedLoader(db::ShardedDatabase& database,
                             LoaderOptions options)
    : db_(&database),
      lane_events_(database.shard_count(), 0),
      skew_(telemetry::registry().gauge("stampede_loader_shard_skew_permille")) {
  lanes_.reserve(database.shard_count());
  for (std::size_t i = 0; i < database.shard_count(); ++i) {
    lanes_.push_back(
        std::make_unique<LaneSlot>(database.shard(i), options, i));
  }
  // Routing must survive a crash/restart: a workflow's rows live on
  // exactly one shard, so every workflow already in the (recovered)
  // archive is pinned back to that shard's lane. Without this, a
  // sub-workflow pinned to its parent's lane by an already-committed
  // map event would re-route by hash after a restart and its replayed
  // events would land on the wrong shard.
  for (std::size_t i = 0; i < database.shard_count(); ++i) {
    if (!database.shard(i).has_table("workflow")) continue;
    const auto rs = database.shard(i).execute(
        db::Select{"workflow"}.columns({"wf_uuid"}));
    for (std::size_t r = 0; r < rs.size(); ++r) {
      if (const auto uuid =
              common::Uuid::parse(rs.at(r, "wf_uuid").as_text())) {
        route_map_.pin(*uuid, i);
      }
    }
  }
  for (auto& slot : lanes_) slot->lane.start();
}

ShardedLoader::~ShardedLoader() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; a failing flush is already counted in
    // the lane loaders' own error paths.
  }
}

void ShardedLoader::set_ack_callback(
    std::function<void(std::uint64_t)> callback) {
  for (auto& slot : lanes_) slot->lane.loader().set_ack_callback(callback);
}

void ShardedLoader::flush_hint() {
  if (finished_) return;
  for (auto& slot : lanes_) slot->lane.flush_hint();
}

void ShardedLoader::update_skew() {
  // Max relative deviation from a perfectly even spread, in permille:
  // 0 = balanced, 1000 = one lane holds double its fair share (or
  // worse). Cheap enough to refresh on every dispatch.
  if (dispatched_ == 0 || lanes_.size() < 2) {
    skew_.set(0);
    return;
  }
  const double fair =
      static_cast<double>(dispatched_) / static_cast<double>(lanes_.size());
  double worst = 0.0;
  for (const std::uint64_t count : lane_events_) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(count) - fair) / fair);
  }
  skew_.set(static_cast<std::int64_t>(worst * 1000.0));
}

bool ShardedLoader::process(const nl::LogRecord& record,
                            const telemetry::TraceStamps* trace,
                            bool redelivered, std::uint64_t ack_tag) {
  if (finished_) return false;
  const std::size_t lane_index = route_map_.route(
      record, [this](std::string_view key) {
        return db_->shard_index_for_key(key);
      });
  LaneSlot& slot = *lanes_[lane_index];
  if (!slot.lane.push(record, trace, redelivered, ack_tag)) return false;
  slot.depth.set(static_cast<std::int64_t>(slot.lane.depth()));
  slot.dispatched.inc();
  ++lane_events_[lane_index];
  ++dispatched_;
  update_skew();
  return true;
}

void ShardedLoader::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& slot : lanes_) {
    slot->lane.finish();
    slot->depth.set(0);
  }
}

LoaderStats ShardedLoader::stats() const {
  LoaderStats total;
  for (const auto& slot : lanes_) total.merge(slot->lane.loader().stats());
  return total;
}

const LoaderStats& ShardedLoader::lane_stats(std::size_t lane) const {
  return lanes_[lane]->lane.loader().stats();
}

std::optional<std::size_t> ShardedLoader::route_of(
    const common::Uuid& uuid) const {
  return route_map_.route_of(uuid);
}

std::optional<std::int64_t> ShardedLoader::wf_id(
    const common::Uuid& uuid) const {
  const auto route = route_map_.route_of(uuid);
  if (!route) return std::nullopt;
  return lanes_[*route]->lane.loader().wf_id(uuid);
}

}  // namespace stampede::loader
