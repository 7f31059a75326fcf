#include "db/sharded_database.hpp"

#include "common/errors.hpp"
#include "common/hash.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::db {

std::uint64_t partition_hash(std::string_view key) noexcept {
  // One shared definition (common/hash.hpp): the cluster router hashes
  // the same keys in another process and must land on the same shard.
  return common::fnv1a64(key);
}

std::string ShardedDatabase::shard_wal_path(const std::string& base,
                                            std::size_t index,
                                            std::size_t count) {
  if (base.empty() || count <= 1) return base;
  return base + "." + std::to_string(index);
}

ShardedDatabase::ShardedDatabase(std::size_t shard_count)
    : ShardedDatabase(shard_count, std::string{}) {}

ShardedDatabase::ShardedDatabase(std::size_t shard_count,
                                 std::string wal_base_path) {
  if (shard_count == 0) {
    throw common::DbError("ShardedDatabase: shard_count must be >= 1");
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<StorageShard>(
        shard_wal_path(wal_base_path, i, shard_count));
    shard->set_pk_allocation(static_cast<std::int64_t>(i),
                             static_cast<std::int64_t>(shard_count));
    shard->set_commit_latency_sink(&telemetry::registry().histogram(
        telemetry::labeled("stampede_shard_commit_latency_seconds", "shard",
                           std::to_string(i))));
    shards_.push_back(std::move(shard));
  }
}

std::size_t ShardedDatabase::shard_index_for_key(
    std::string_view partition_key) const noexcept {
  return static_cast<std::size_t>(partition_hash(partition_key) %
                                  shards_.size());
}

std::size_t ShardedDatabase::shard_index_for_id(
    std::int64_t id) const noexcept {
  const auto n = static_cast<std::int64_t>(shards_.size());
  return static_cast<std::size_t>(((id - 1) % n + n) % n);
}

void ShardedDatabase::create_table(const TableDef& def) {
  for (auto& shard : shards_) shard->create_table(def);
}

bool ShardedDatabase::has_table(const std::string& name) const {
  return shards_.front()->has_table(name);
}

std::vector<std::string> ShardedDatabase::table_names() const {
  return shards_.front()->table_names();
}

const TableDef& ShardedDatabase::table_def(const std::string& name) const {
  return shards_.front()->table_def(name);
}

std::size_t ShardedDatabase::row_count(const std::string& table) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->row_count(table);
  return total;
}

void ShardedDatabase::set_change_sink(const ChangeSink& sink,
                                      std::vector<std::string> tables) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->set_change_sink(sink, tables, i);
  }
}

std::vector<std::uint64_t> ShardedDatabase::table_versions(
    const std::vector<std::string>& names) const {
  std::vector<std::uint64_t> versions;
  versions.reserve(names.size() * shards_.size());
  for (const auto& shard : shards_) {
    const auto block = shard->table_versions(names);
    versions.insert(versions.end(), block.begin(), block.end());
  }
  return versions;
}

std::size_t ShardedDatabase::recover() {
  std::size_t applied = 0;
  for (auto& shard : shards_) applied += shard->recover();
  return applied;
}

std::uint64_t ShardedDatabase::wal_truncated_records() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->wal_truncated_records();
  return total;
}

}  // namespace stampede::db
