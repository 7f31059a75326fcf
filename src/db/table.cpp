#include "db/table.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "db/query.hpp"

namespace stampede::db {

using common::DbError;

Table::Table(TableDef def) : def_(std::move(def)) {
  if (!def_.primary_key.empty()) {
    pk_col_ = def_.column_index(def_.primary_key);
    if (!pk_col_) {
      throw DbError("table " + def_.name + ": primary key column '" +
                    def_.primary_key + "' not found");
    }
    if (def_.columns[*pk_col_].type != ColumnType::kInteger) {
      throw DbError("table " + def_.name +
                    ": only integer primary keys are supported");
    }
  }
  for (const auto& index : def_.indexes) {
    if (index.columns.empty()) {
      throw DbError("table " + def_.name + ": index with no columns");
    }
    const auto col = def_.column_index(index.columns.front());
    if (!col) {
      throw DbError("table " + def_.name + ": index on unknown column '" +
                    index.columns.front() + "'");
    }
    secondary_.try_emplace(*col);
    if (index.unique && index.columns.size() == 1) {
      unique_single_.push_back(*col);
    }
  }
}

void Table::check_not_null(const Row& row) const {
  for (std::size_t i = 0; i < def_.columns.size(); ++i) {
    if (def_.columns[i].not_null && row[i].is_null()) {
      throw DbError("table " + def_.name + ": NOT NULL violation on column '" +
                    def_.columns[i].name + "'");
    }
  }
}

void Table::check_unique(const Row& row, std::optional<RowId> ignore) const {
  for (const std::size_t col : unique_single_) {
    if (row[col].is_null()) continue;  // SQL: NULLs never collide.
    const auto it = secondary_.find(col);
    if (it == secondary_.end()) continue;
    const auto [lo, hi] = it->second.equal_range(row[col]);
    for (auto cur = lo; cur != hi; ++cur) {
      if (!ignore || cur->second != *ignore) {
        throw DbError("table " + def_.name + ": UNIQUE violation on column '" +
                      def_.columns[col].name + "'");
      }
    }
  }
}

Table::InsertResult Table::insert(Row row) {
  if (row.size() != def_.columns.size()) {
    throw DbError("table " + def_.name + ": row arity " +
                  std::to_string(row.size()) + " != schema arity " +
                  std::to_string(def_.columns.size()));
  }
  // Apply column defaults to NULL slots.
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null() && def_.columns[i].default_value) {
      row[i] = *def_.columns[i].default_value;
    }
  }
  if (pk_col_ && row[*pk_col_].is_null()) {
    row[*pk_col_] = Value{next_auto_};
  }
  if (pk_col_) {
    const Value& key = row[*pk_col_];
    if (!key.is_int()) {
      throw DbError("table " + def_.name + ": non-integer primary key value");
    }
    if (pk_index_.find(key) != pk_index_.end()) {
      throw DbError("table " + def_.name + ": duplicate primary key " +
                    key.to_string());
    }
    // Advance the auto sequence past an explicit key while staying in
    // this table's congruence class (start mod step).
    if (key.as_int() >= next_auto_) {
      const std::int64_t delta = key.as_int() - next_auto_;
      next_auto_ += (delta / auto_step_ + 1) * auto_step_;
    }
  }
  check_not_null(row);
  check_unique(row, std::nullopt);

  const auto id = static_cast<RowId>(rows_.size());
  ++version_;
  index_insert(id, row);
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  return InsertResult{id, pk_col_ ? rows_.back()[*pk_col_].as_int() : id};
}

void Table::set_auto_increment(std::int64_t start, std::int64_t step) {
  if (start < 1 || step < 1) {
    throw DbError("table " + def_.name + ": invalid auto-increment stride");
  }
  if (!rows_.empty()) {
    throw DbError("table " + def_.name +
                  ": auto-increment stride must be set before inserts");
  }
  next_auto_ = start;
  auto_step_ = step;
}

std::int64_t Table::reserve_pk() {
  if (!pk_col_) {
    throw DbError("table " + def_.name + ": no primary key to reserve");
  }
  const std::int64_t key = next_auto_;
  next_auto_ += auto_step_;
  return key;
}

void Table::index_insert(RowId id, const Row& row) {
  if (pk_col_) pk_index_.emplace(row[*pk_col_], id);
  for (auto& [col, index] : secondary_) {
    index.emplace(row[col], id);
  }
}

namespace {

void index_erase(std::multimap<Value, RowId>& index, const Value& key,
                 RowId id) {
  const auto [lo, hi] = index.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == id) {
      index.erase(it);
      return;
    }
  }
}

}  // namespace

void Table::index_remove(RowId id, const Row& row) {
  if (pk_col_) pk_index_.erase(row[*pk_col_]);
  for (auto& [col, index] : secondary_) index_erase(index, row[col], id);
}

const Row* Table::fetch(RowId id) const noexcept {
  if (id < 0 || static_cast<std::size_t>(id) >= rows_.size() ||
      !live_[static_cast<std::size_t>(id)]) {
    return nullptr;
  }
  return &rows_[static_cast<std::size_t>(id)];
}

std::optional<RowId> Table::find_pk(const Value& key) const {
  const auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

bool Table::has_index(const std::string& column) const {
  const auto col = def_.column_index(column);
  if (!col) return false;
  if (pk_col_ && *pk_col_ == *col) return true;
  return secondary_.find(*col) != secondary_.end();
}

std::optional<std::vector<RowId>> Table::index_lookup(const std::string& column,
                                                      const Value& key) const {
  const auto col = def_.column_index(column);
  if (!col) return std::nullopt;
  std::vector<RowId> out;
  if (pk_col_ && *pk_col_ == *col) {
    const auto it = pk_index_.find(key);
    if (it != pk_index_.end()) out.push_back(it->second);
    return out;
  }
  const auto it = secondary_.find(*col);
  if (it == secondary_.end()) return std::nullopt;
  const auto [lo, hi] = it->second.equal_range(key);
  for (auto cur = lo; cur != hi; ++cur) out.push_back(cur->second);
  return out;
}

bool Table::update(RowId id,
                   const std::vector<std::pair<std::string, Value>>& sets) {
  if (id < 0 || static_cast<std::size_t>(id) >= rows_.size() ||
      !live_[static_cast<std::size_t>(id)]) {
    return false;
  }
  const auto slot = static_cast<std::size_t>(id);
  store_.invalidate(id);
  Row updated = rows_[slot];
  for (const auto& [name, value] : sets) {
    const auto col = def_.column_index(name);
    if (!col) {
      throw DbError("table " + def_.name + ": update of unknown column '" +
                    name + "'");
    }
    if (pk_col_ && *col == *pk_col_) {
      throw DbError("table " + def_.name + ": primary key is immutable");
    }
    updated[*col] = value;
  }
  check_not_null(updated);
  check_unique(updated, static_cast<RowId>(slot));
  ++version_;
  // Only the indexes of changed columns move (the PK is immutable).
  // Type-tagged equality, so an index always holds the row's own value.
  Row& row = rows_[slot];
  for (auto& [col, index] : secondary_) {
    if (group_values_equal(row[col], updated[col])) continue;
    index_erase(index, row[col], id);
    index.emplace(updated[col], id);
  }
  row = std::move(updated);
  return true;
}

bool Table::erase(RowId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= rows_.size() ||
      !live_[static_cast<std::size_t>(id)]) {
    return false;
  }
  const auto slot = static_cast<std::size_t>(id);
  ++version_;
  store_.invalidate(id);
  index_remove(static_cast<RowId>(slot), rows_[slot]);
  live_[slot] = false;
  --live_count_;
  return true;
}

void Table::raw_replace(RowId id, Row row) {
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= rows_.size() || !live_[slot]) {
    throw DbError("table " + def_.name + ": raw_replace of dead row");
  }
  ++version_;
  store_.invalidate(id);
  index_remove(id, rows_[slot]);
  rows_[slot] = std::move(row);
  index_insert(id, rows_[slot]);
}

void Table::raw_revive(RowId id, Row row) {
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= rows_.size() || live_[slot]) {
    throw DbError("table " + def_.name + ": raw_revive of live row");
  }
  ++version_;
  // The covering segment (if any) omitted this row when it was dead;
  // reviving it makes that image stale. The payload arrives with the
  // call, so sealing having reclaimed the dead slot is harmless.
  store_.invalidate(id);
  rows_[slot] = std::move(row);
  live_[slot] = true;
  ++live_count_;
  index_insert(id, rows_[slot]);
}

SealStats Table::seal(const SealOptions& opts) {
  SealStats stats;
  const auto total = static_cast<RowId>(rows_.size());
  const auto hot =
      static_cast<RowId>(std::min<std::size_t>(opts.hot_tail_rows, rows_.size()));
  const RowId sealable_hi = total - hot;  // Slots below stay sealable.
  if (sealable_hi <= 0) return stats;

  // Range indexes: declared REAL columns (timestamps).
  std::vector<std::size_t> range_cols;
  for (std::size_t c = 0; c < def_.columns.size(); ++c) {
    if (def_.columns[c].type == ColumnType::kReal) range_cols.push_back(c);
  }

  // Uncovered gaps below the hot tail, left to right. A gap in front of
  // an existing segment was opened by an invalidation — always re-seal
  // it; the trailing gap waits until it is worth a segment.
  struct Gap {
    RowId lo, hi;
    bool interior;
  };
  std::vector<Gap> gaps;
  RowId cursor = 0;
  for (const auto& seg : store_.segments()) {
    if (seg.lo > cursor) {
      gaps.push_back({cursor, std::min(seg.lo, sealable_hi), true});
    }
    cursor = std::max(cursor, seg.hi);
    if (cursor >= sealable_hi) break;
  }
  if (cursor < sealable_hi) gaps.push_back({cursor, sealable_hi, false});

  for (const auto& gap : gaps) {
    if (gap.lo >= gap.hi) continue;
    const auto len = static_cast<std::size_t>(gap.hi - gap.lo);
    if (!gap.interior && len < opts.min_seal_rows) continue;
    const auto target =
        static_cast<RowId>(std::max<std::size_t>(opts.target_segment_rows, 1));
    for (RowId lo = gap.lo; lo < gap.hi; lo += target) {
      const RowId hi = std::min(lo + target, gap.hi);
      Segment seg = build_segment(def_, rows_, live_, lo, hi, range_cols);
      // Tombstones vanish in the columnar image; free their row-store
      // payloads too. raw_revive() restores content from the undo log,
      // so rollbacks never need the dead bytes back.
      for (RowId id = lo; id < hi; ++id) {
        const auto slot = static_cast<std::size_t>(id);
        if (!live_[slot] && !rows_[slot].empty()) {
          Row{}.swap(rows_[slot]);
          ++reclaimed_;
          ++stats.tombstones_reclaimed;
        }
      }
      ++stats.segments_built;
      stats.rows_sealed += seg.size();
      store_.add(std::move(seg));
    }
  }
  return stats;
}

}  // namespace stampede::db
