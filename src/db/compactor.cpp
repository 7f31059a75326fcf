#include "db/compactor.hpp"

#include <chrono>
#include <string>
#include <unordered_map>

#include "db/sharded_database.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::db {

Compactor::Compactor(ShardedDatabase& db, CompactorOptions options)
    : options_(options) {
  shards_.reserve(db.shard_count());
  for (std::size_t i = 0; i < db.shard_count(); ++i) {
    shards_.push_back(&db.shard(i));
  }
  start();
}

Compactor::Compactor(StorageShard& shard, CompactorOptions options)
    : shards_{&shard}, options_(options) {
  start();
}

Compactor::Compactor(std::vector<StorageShard*> shards,
                     CompactorOptions options)
    : shards_(std::move(shards)), options_(options) {
  start();
}

Compactor::~Compactor() { stop(); }

void Compactor::start() {
  thread_ = std::thread([this] { loop(); });
}

void Compactor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Compactor::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();  // Never hold our mutex across shard locks.
    run_once();
    lock.lock();
  }
}

StorageShard::CompactStats Compactor::run_once() {
  StorageShard::CompactStats total;
  // live/dead/sealed per table, summed across this compactor's shards.
  struct Tally {
    std::size_t live = 0, dead = 0;
  };
  std::unordered_map<std::string, Tally> tallies;

  for (StorageShard* shard : shards_) {
    const auto stats = shard->compact(options_.seal);
    total.segments_built += stats.segments_built;
    total.rows_sealed += stats.rows_sealed;
    total.tombstones_reclaimed += stats.tombstones_reclaimed;
    for (const auto& counts : shard->table_counts()) {
      auto& tally = tallies[counts.table];
      tally.live += counts.live;
      tally.dead += counts.dead;
    }
  }

  auto& registry = telemetry::registry();
  for (const auto& [table, tally] : tallies) {
    registry
        .gauge(telemetry::labeled("stampede_db_live_rows", "table", table))
        .set(static_cast<std::int64_t>(tally.live));
    registry
        .gauge(
            telemetry::labeled("stampede_db_tombstones_total", "table", table))
        .set(static_cast<std::int64_t>(tally.dead));
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
  return total;
}

}  // namespace stampede::db
