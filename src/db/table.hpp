#pragma once
// Row storage with primary-key and secondary indexes.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/expr.hpp"
#include "db/schema.hpp"
#include "db/segment.hpp"

namespace stampede::db {

/// One table's data. Rows are addressed by a stable RowId; deletions
/// tombstone in place so ids never shift. Not internally synchronized —
/// the owning Database serializes access.
class Table {
 public:
  explicit Table(TableDef def);

  [[nodiscard]] const TableDef& def() const noexcept { return def_; }

  struct InsertResult {
    RowId row_id = 0;     ///< Stable storage slot.
    std::int64_t pk = 0;  ///< Primary-key value (== row_id when no PK).
  };

  /// Inserts a row (positionally aligned with the schema). Auto-assigns
  /// the integer primary key when its slot is NULL. Enforces NOT NULL,
  /// PK uniqueness and unique indexes; throws common::DbError on
  /// violation.
  InsertResult insert(Row row);

  /// Configures a strided auto-increment sequence: generated keys are
  /// start, start+step, start+step*2, … Shard s of N uses (s+1, N) so
  /// every shard draws from a disjoint congruence class and the owning
  /// shard of any key is recoverable as (key-1) mod N. Must be called
  /// before the first insert; (1, 1) is the default single-shard
  /// sequence.
  void set_auto_increment(std::int64_t start, std::int64_t step);

  /// Draws the next auto-assigned primary key (advancing the sequence
  /// as an insert would), so a caller can queue the row with its key
  /// already known. A drawn key that is never inserted stays skipped,
  /// like the key of a rolled-back insert. The table must have a PK.
  std::int64_t reserve_pk();

  /// Fetch by RowId; nullptr when deleted/nonexistent.
  [[nodiscard]] const Row* fetch(RowId id) const noexcept;

  /// Fetch by primary-key value (indexed).
  [[nodiscard]] std::optional<RowId> find_pk(const Value& key) const;

  /// RowIds whose indexed column equals `key`. nullopt when the column
  /// has no exact-match index (callers should fall back to a scan);
  /// an engaged empty vector means "indexed, no matches" — the two
  /// cases were conflated as one empty vector before.
  [[nodiscard]] std::optional<std::vector<RowId>> index_lookup(
      const std::string& column, const Value& key) const;

  /// True when `column` has an exact-match index available.
  [[nodiscard]] bool has_index(const std::string& column) const;

  /// Updates columns of the row `id`; maintains indexes. Returns false
  /// when the row does not exist.
  bool update(RowId id, const std::vector<std::pair<std::string, Value>>& sets);

  /// Tombstones the row; returns false when absent.
  bool erase(RowId id);

  // Low-level hooks used by Database's transaction rollback; they bypass
  // constraint checks because they restore a previously valid state.

  /// Overwrites a live row in place, maintaining indexes.
  void raw_replace(RowId id, Row row);

  /// Revives a tombstoned row with its prior contents.
  void raw_revive(RowId id, Row row);

  /// Applies `fn(id, row)` to every live row.
  template <typename Fn>
  void scan(Fn&& fn) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (!live_[i]) continue;
      fn(static_cast<RowId>(i), rows_[i]);
    }
  }

  [[nodiscard]] std::size_t row_count() const noexcept { return live_count_; }

  /// Total storage slots, live or tombstoned (== one past the highest
  /// RowId ever assigned).
  [[nodiscard]] std::size_t slot_count() const noexcept { return rows_.size(); }

  /// Tombstoned slots still occupying storage.
  [[nodiscard]] std::size_t dead_count() const noexcept {
    return rows_.size() - live_count_;
  }

  /// Tombstoned slots whose payloads sealing has reclaimed so far.
  [[nodiscard]] std::size_t reclaimed_count() const noexcept {
    return reclaimed_;
  }

  /// Monotonic modification counter: bumped by every mutation, including
  /// the raw_* rollback hooks (an undone change still invalidates any
  /// result computed from the intermediate state). Query caches key
  /// results on it (query::QueryExecutor).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // -- columnar segments (segment.hpp, DESIGN.md §15) -----------------------

  [[nodiscard]] const ColumnStore& column_store() const noexcept {
    return store_;
  }

  /// Rolls cold, uncovered slot ranges into columnar segments per
  /// `opts`, reclaiming tombstoned payloads inside sealed ranges. Does
  /// NOT bump version(): sealing changes the physical layout only, so
  /// cached results stay valid. Caller holds the shard's exclusive lock.
  SealStats seal(const SealOptions& opts);

 private:
  void index_insert(RowId id, const Row& row);
  void index_remove(RowId id, const Row& row);
  void check_not_null(const Row& row) const;
  void check_unique(const Row& row, std::optional<RowId> ignore) const;

  TableDef def_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
  std::size_t live_count_ = 0;
  std::uint64_t version_ = 0;

  std::optional<std::size_t> pk_col_;  ///< Index into columns.
  std::int64_t next_auto_ = 1;
  std::int64_t auto_step_ = 1;
  std::unordered_map<Value, RowId> pk_index_;

  /// column index -> (value -> row ids). Built for every IndexDef column
  /// (first column of a composite index gets the exact-match map).
  std::unordered_map<std::size_t, std::multimap<Value, RowId>> secondary_;
  std::vector<std::size_t> unique_single_;  ///< Columns with UNIQUE index.

  ColumnStore store_;          ///< Columnar acceleration segments.
  std::size_t reclaimed_ = 0;  ///< Dead payloads freed by seal().
};

}  // namespace stampede::db
