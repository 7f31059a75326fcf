#pragma once
// Partitioned archive: N StorageShards behind one facade (DESIGN.md §2,
// "Sharded archive").
//
// Rows are partitioned by workflow: the loader routes every event of a
// workflow (and of its whole sub-workflow tree) to one shard, chosen by
// a stable hash of the root workflow UUID. Each shard keeps its own
// mutex, undo log and WAL file (`<base>.0 .. <base>.N-1`), so N loader
// lanes commit without contention. Primary keys are strided
// (shard s draws s+1, s+1+N, s+1+2N, …) which keeps ids globally unique
// and makes the owning shard recoverable from any id as (id-1) mod N.
//
// With shard_count == 1 the facade degenerates to exactly the original
// single Database: same WAL path, same key sequence, bit-compatible
// archives.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.hpp"

namespace stampede::db {

/// Stable 64-bit FNV-1a of the partition key. Deliberately not
/// std::hash (implementation-defined): shard placement must be
/// reproducible across builds and processes, because WAL recovery has
/// to find rows on the shard that wrote them.
[[nodiscard]] std::uint64_t partition_hash(std::string_view key) noexcept;

class ShardedDatabase {
 public:
  /// In-memory sharded archive.
  explicit ShardedDatabase(std::size_t shard_count = 1);

  /// WAL-backed sharded archive. Shard i logs to shard_wal_path(base,
  /// i, N); with N == 1 that is `base` itself, so a single-shard
  /// archive file round-trips with plain Database unchanged.
  ShardedDatabase(std::size_t shard_count, std::string wal_base_path);

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  [[nodiscard]] StorageShard& shard(std::size_t index) {
    return *shards_[index];
  }
  [[nodiscard]] const StorageShard& shard(std::size_t index) const {
    return *shards_[index];
  }

  // -- routing ----------------------------------------------------------------

  /// Shard owning `partition_key` (a workflow UUID).
  [[nodiscard]] std::size_t shard_index_for_key(
      std::string_view partition_key) const noexcept;

  /// Shard that allocated primary key `id` (inverse of the stride).
  [[nodiscard]] std::size_t shard_index_for_id(std::int64_t id) const noexcept;

  [[nodiscard]] StorageShard& shard_for(std::string_view partition_key) {
    return *shards_[shard_index_for_key(partition_key)];
  }

  // -- schema / maintenance fan-out ------------------------------------------

  /// Creates the table on every shard.
  void create_table(const TableDef& def);

  [[nodiscard]] bool has_table(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> table_names() const;
  [[nodiscard]] const TableDef& table_def(const std::string& name) const;

  /// Total live rows across shards.
  [[nodiscard]] std::size_t row_count(const std::string& table) const;

  /// Installs `sink` on every shard (empty detaches); each shard stamps
  /// its index into the batches it delivers. See
  /// StorageShard::set_change_sink / change.hpp for the contract —
  /// ordering holds per shard, batches from different shards arrive
  /// concurrently.
  void set_change_sink(const ChangeSink& sink,
                       std::vector<std::string> tables = {});

  /// Versions of `names` on every shard, concatenated shard-major
  /// (shard 0's versions, then shard 1's, …). Each shard's block is one
  /// consistent observation; the cache treats the whole vector as the
  /// archive-wide version stamp.
  [[nodiscard]] std::vector<std::uint64_t> table_versions(
      const std::vector<std::string>& names) const;

  /// Replays every shard's WAL; returns total operations applied.
  std::size_t recover();

  /// Truncated trailing WAL records discarded across all shards.
  [[nodiscard]] std::uint64_t wal_truncated_records() const;

  /// WAL file of shard `index` out of `count`: the base path itself for
  /// a single shard, `<base>.<index>` otherwise. Empty base -> empty
  /// (in-memory).
  [[nodiscard]] static std::string shard_wal_path(const std::string& base,
                                                  std::size_t index,
                                                  std::size_t count);

 private:
  std::vector<std::unique_ptr<StorageShard>> shards_;
};

}  // namespace stampede::db
