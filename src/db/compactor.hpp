#pragma once
// Background compactor: rolls cold row-store ranges into columnar
// segments (DESIGN.md §15).
//
// One thread sweeps its shards round-robin, taking each shard's
// exclusive lock only for that shard's seal pass — never two shard
// locks at once, matching the loader's one-lock-at-a-time discipline
// (DESIGN.md §10). Sealing does not bump table versions, fire change
// capture, or alter query results; it only changes the physical layout
// readers scan, so the compactor can race live ingest and readers
// freely.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "db/database.hpp"

namespace stampede::db {

class ShardedDatabase;

struct CompactorOptions {
  SealOptions seal;
  /// Sweep period. Every interval the compactor visits each shard once.
  std::uint64_t interval_ms = 200;
};

/// Owns the sweep thread. Construction starts it; destruction (or
/// stop()) joins it. run_once() is also public so tests and
/// single-threaded callers can drive passes deterministically.
class Compactor {
 public:
  Compactor(ShardedDatabase& db, CompactorOptions options = {});
  Compactor(StorageShard& shard, CompactorOptions options = {});
  Compactor(std::vector<StorageShard*> shards, CompactorOptions options = {});
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// One sweep over every shard. Returns the pass totals; also
  /// refreshes the per-table live/dead/sealed gauges
  /// (`stampede_db_live_rows{table=...}`,
  /// `stampede_db_tombstones_total{table=...}`).
  StorageShard::CompactStats run_once();

  /// Signals the sweep thread and joins it. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t passes() const noexcept {
    return passes_.load(std::memory_order_relaxed);
  }

 private:
  void start();
  void loop();

  std::vector<StorageShard*> shards_;
  CompactorOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> passes_{0};
  std::thread thread_;
};

}  // namespace stampede::db
