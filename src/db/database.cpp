#include "db/database.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/errors.hpp"
#include "db/aggregate.hpp"
#include "telemetry/metrics.hpp"

namespace stampede::db {

using common::DbError;

// ---------------------------------------------------------------------------
// Schema

void StorageShard::create_table(TableDef def) {
  const WriteGuard guard{*this};
  const std::string name = def.name;
  if (tables_.find(name) != tables_.end()) {
    throw DbError("create_table: table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(std::move(def));
  if (pk_step_ != 1) table->set_auto_increment(1 + pk_offset_, pk_step_);
  tables_.emplace(name, std::move(table));
}

void StorageShard::set_pk_allocation(std::int64_t offset, std::int64_t step) {
  const WriteGuard guard{*this};
  if (step < 1 || offset < 0 || offset >= step) {
    throw DbError("set_pk_allocation: need 0 <= offset < step");
  }
  pk_offset_ = offset;
  pk_step_ = step;
  for (auto& [name, table] : tables_) {
    table->set_auto_increment(1 + offset, step);
  }
}

std::int64_t StorageShard::reserve_pk(const std::string& table) {
  const WriteGuard guard{*this};
  return table_ref(table).reserve_pk();
}

void StorageShard::set_commit_latency_sink(telemetry::Histogram* sink) {
  const WriteGuard guard{*this};
  commit_latency_ = sink;
}

bool StorageShard::has_table(const std::string& name) const {
  const ReadGuard guard{*this};
  return tables_.find(name) != tables_.end();
}

std::vector<std::string> StorageShard::table_names() const {
  const ReadGuard guard{*this};
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

const TableDef& StorageShard::table_def(const std::string& name) const {
  const ReadGuard guard{*this};
  return table_ref(name).def();
}

std::uint64_t StorageShard::table_version(const std::string& name) const {
  const ReadGuard guard{*this};
  return table_ref(name).version();
}

std::vector<std::uint64_t> StorageShard::table_versions(
    const std::vector<std::string>& names) const {
  const ReadGuard guard{*this};
  std::vector<std::uint64_t> versions;
  versions.reserve(names.size());
  for (const auto& name : names) versions.push_back(table_ref(name).version());
  return versions;
}

Table& StorageShard::table_ref(const std::string& name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw DbError("unknown table '" + name + "'");
  return *it->second;
}

const Table& StorageShard::table_ref(const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw DbError("unknown table '" + name + "'");
  return *it->second;
}

// ---------------------------------------------------------------------------
// WAL serialization

namespace {

std::string wal_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '|') {
      out += "\\p";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string wal_unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char e = text[++i];
      if (e == 'p') {
        out.push_back('|');
      } else if (e == 'n') {
        out.push_back('\n');
      } else {
        out.push_back(e);
      }
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

std::string serialize_value(const Value& value) {
  if (value.is_null()) return "N";
  if (value.is_int()) return "I" + std::to_string(value.as_int());
  if (value.is_real()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "R%.17g", value.as_real());
    return buf;
  }
  return "S" + wal_escape(value.as_text());
}

Value deserialize_value(std::string_view text) {
  if (text.empty() || text == "N") return Value::null();
  const char tag = text.front();
  const std::string_view payload = text.substr(1);
  if (tag == 'I') {
    return Value{static_cast<std::int64_t>(
        std::strtoll(std::string{payload}.c_str(), nullptr, 10))};
  }
  if (tag == 'R') {
    return Value{std::strtod(std::string{payload}.c_str(), nullptr)};
  }
  if (tag == 'S') return Value{wal_unescape(payload)};
  throw DbError("WAL: bad value tag '" + std::string{text} + "'");
}

// Splits a WAL line on unescaped '|'.
std::vector<std::string> wal_fields(std::string_view line) {
  std::vector<std::string> out;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      current.push_back(line[i]);
      current.push_back(line[i + 1]);
      ++i;
    } else if (line[i] == '|') {
      out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(line[i]);
    }
  }
  out.push_back(std::move(current));
  return out;
}

}  // namespace

void StorageShard::wal_write(const std::string& line) {
  if (wal_path_.empty() || replaying_) return;
  if (txn_active_) {
    wal_buffer_.push_back(line);
    return;
  }
  std::string shipped = line;
  shipped += '\n';
  wal_append(shipped);
  if (wal_sink_) wal_sink_(shipped);
}

void StorageShard::wal_append(std::string_view bytes) {
  if (!wal_out_.is_open()) wal_out_.open(wal_path_, std::ios::app);
  wal_out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // Flushed per commit: a process crash after commit() loses nothing.
  wal_out_.flush();
  if (!wal_out_) {
    // Failed open or write: retry with a fresh open on the next append.
    wal_out_.close();
    wal_out_.clear();
  }
}

void StorageShard::set_wal_sink(WalSink sink) {
  const WriteGuard guard{*this};
  wal_sink_ = std::move(sink);
}

// ---------------------------------------------------------------------------
// Change capture (change.hpp)

void StorageShard::set_change_sink(ChangeSink sink,
                                   std::vector<std::string> tables,
                                   std::size_t shard_ordinal) {
  std::uint64_t fence = 0;
  {
    const WriteGuard guard{*this};
    change_sink_ = std::move(sink);
    capture_tables_ = {tables.begin(), tables.end()};
    shard_ordinal_ = shard_ordinal;
    change_buffer_.clear();
    fence = delivery_ticket_;
  }
  // Deliveries already staged hold a copy of the previous sink; wait
  // for them so a caller detaching (sink = nullptr) may safely destroy
  // whatever that sink pointed at once this returns.
  std::unique_lock lock{delivery_mutex_};
  delivery_cv_.wait(lock, [&] { return delivery_next_ >= fence; });
}

void StorageShard::for_each_row(
    const std::string& table,
    const std::function<void(RowId, const Row&)>& fn) const {
  const ReadGuard guard{*this};
  table_ref(table).scan(fn);
}

bool StorageShard::capturing(const std::string& table) const {
  return change_sink_ && !replaying_ &&
         (capture_tables_.empty() || capture_tables_.count(table) != 0);
}

void StorageShard::capture(RowChange::Kind kind, const std::string& table,
                           RowId row_id, Row before, Row after) {
  change_buffer_.push_back(
      {kind, table, row_id, std::move(before), std::move(after)});
}

StorageShard::StagedDelivery StorageShard::stage_delivery() {
  StagedDelivery staged;
  if (!change_sink_ || change_buffer_.empty()) {
    change_buffer_.clear();
    return staged;
  }
  staged.armed = true;
  staged.ticket = delivery_ticket_++;
  staged.batch.shard = shard_ordinal_;
  staged.batch.commit_time = std::chrono::steady_clock::now();
  staged.batch.changes = std::move(change_buffer_);
  change_buffer_.clear();
  staged.sink = change_sink_;
  return staged;
}

void StorageShard::deliver(StagedDelivery&& staged) {
  if (!staged.armed) return;
  std::unique_lock lock{delivery_mutex_};
  delivery_cv_.wait(lock, [&] { return delivery_next_ == staged.ticket; });
  try {
    staged.sink(staged.batch);
  } catch (...) {
    // A throwing sink must not wedge the ticket sequence (every later
    // delivery would park forever). Swallow; sinks own their errors.
  }
  ++delivery_next_;
  lock.unlock();
  delivery_cv_.notify_all();
}

template <typename Fn>
auto StorageShard::write_entry(Fn&& fn) -> decltype(fn()) {
  StagedDelivery staged;
  decltype(fn()) out;
  {
    const WriteGuard guard{*this};
    try {
      out = fn();
    } catch (...) {
      // Autocommit path: the statement failed part-way, nothing commits
      // beyond what the statement already applied — captured changes for
      // the applied part would mislead sinks, drop them. (Inside a
      // transaction rollback() clears the buffer instead.)
      if (!txn_active_) change_buffer_.clear();
      throw;
    }
    if (!txn_active_) staged = stage_delivery();
  }
  deliver(std::move(staged));
  return out;
}

// ---------------------------------------------------------------------------
// DML

std::int64_t StorageShard::insert(const std::string& table,
                                  const NamedValues& values) {
  return write_entry([&] { return insert_unlocked(table, values); });
}

std::int64_t StorageShard::insert_unlocked(const std::string& table,
                                           const NamedValues& values) {
  Table& t = table_ref(table);
  const TableDef& def = t.def();
  Row row(def.columns.size(), Value::null());
  for (const auto& [name, value] : values) {
    const auto col = def.column_index(name);
    if (!col) {
      throw DbError("insert into " + table + ": unknown column '" + name +
                    "'");
    }
    row[*col] = value;
  }
  const auto result = t.insert(std::move(row));
  if (txn_active_) {
    undo_log_.push_back({UndoOp::Kind::kInsert, table, result.row_id, {}});
  }
  if (capturing(table)) {
    capture(RowChange::Kind::kInsert, table, result.row_id, {},
            *t.fetch(result.row_id));
  }
  if (!wal_path_.empty() && !replaying_) {
    const Row* stored = t.fetch(result.row_id);
    std::string line = "I|" + wal_escape(table);
    for (const auto& value : *stored) {
      line += '|';
      line += serialize_value(value);
    }
    wal_write(line);
  }
  return result.pk;
}

std::size_t StorageShard::update(const std::string& table,
                                 const ExprPtr& predicate,
                                 const NamedValues& sets) {
  return write_entry([&] { return update_unlocked(table, predicate, sets); });
}

std::size_t StorageShard::update_unlocked(const std::string& table,
                                          const ExprPtr& predicate,
                                          const NamedValues& sets) {
  Table& t = table_ref(table);
  const TableDef& def = t.def();

  std::vector<RowId> targets;
  t.scan([&](RowId id, const Row& row) {
    if (!predicate || evaluate(*predicate, [&](const std::string& col) {
          const auto ci = def.column_index(col);
          if (!ci) throw DbError("update " + table + ": unknown column " + col);
          return row[*ci];
        })) {
      targets.push_back(id);
    }
  });

  const auto pk_col = def.column_index(def.primary_key);
  for (const RowId id : targets) {
    const Row before = *t.fetch(id);
    t.update(id, sets);
    if (txn_active_) {
      undo_log_.push_back({UndoOp::Kind::kUpdate, table, id, before});
    }
    if (capturing(table)) {
      capture(RowChange::Kind::kUpdate, table, id, before, *t.fetch(id));
    }
    if (!wal_path_.empty() && !replaying_) {
      // Address the row by PK when available so replay is robust to slot
      // drift from rolled-back inserts.
      std::string line = "U|" + wal_escape(table) + '|';
      line += pk_col ? serialize_value(before[*pk_col])
                     : serialize_value(Value{id});
      for (const auto& [name, value] : sets) {
        line += '|';
        line += wal_escape(name);
        line += '|';
        line += serialize_value(value);
      }
      wal_write(line);
    }
  }
  return targets.size();
}

bool StorageShard::update_pk(const std::string& table, std::int64_t pk,
                             const NamedValues& sets) {
  return write_entry([&] { return update_pk_unlocked(table, pk, sets); });
}

bool StorageShard::update_pk_unlocked(const std::string& table,
                                      std::int64_t pk,
                                      const NamedValues& sets) {
  Table& t = table_ref(table);
  const auto slot = t.find_pk(Value{pk});
  if (!slot) return false;
  const Row before = *t.fetch(*slot);
  t.update(*slot, sets);
  if (txn_active_) {
    undo_log_.push_back({UndoOp::Kind::kUpdate, table, *slot, before});
  }
  if (capturing(table)) {
    capture(RowChange::Kind::kUpdate, table, *slot, before, *t.fetch(*slot));
  }
  if (!wal_path_.empty() && !replaying_) {
    std::string line = "U|" + wal_escape(table) + '|';
    line += serialize_value(Value{pk});
    for (const auto& [name, value] : sets) {
      line += '|';
      line += wal_escape(name);
      line += '|';
      line += serialize_value(value);
    }
    wal_write(line);
  }
  return true;
}

std::size_t StorageShard::delete_rows(const std::string& table,
                                      const ExprPtr& predicate) {
  return write_entry([&] { return delete_rows_unlocked(table, predicate); });
}

std::size_t StorageShard::delete_rows_unlocked(const std::string& table,
                                               const ExprPtr& predicate) {
  Table& t = table_ref(table);
  const TableDef& def = t.def();
  std::vector<RowId> targets;
  t.scan([&](RowId id, const Row& row) {
    if (!predicate || evaluate(*predicate, [&](const std::string& col) {
          const auto ci = def.column_index(col);
          if (!ci) throw DbError("delete " + table + ": unknown column " + col);
          return row[*ci];
        })) {
      targets.push_back(id);
    }
  });
  const auto pk_col = def.column_index(def.primary_key);
  for (const RowId id : targets) {
    const Row before = *t.fetch(id);
    t.erase(id);
    if (txn_active_) {
      undo_log_.push_back({UndoOp::Kind::kDelete, table, id, before});
    }
    if (capturing(table)) {
      capture(RowChange::Kind::kDelete, table, id, before, {});
    }
    if (!wal_path_.empty() && !replaying_) {
      std::string line = "D|" + wal_escape(table) + '|';
      line += pk_col ? serialize_value(before[*pk_col])
                     : serialize_value(Value{id});
      wal_write(line);
    }
  }
  return targets.size();
}

std::size_t StorageShard::row_count(const std::string& table) const {
  const ReadGuard guard{*this};
  return table_ref(table).row_count();
}

// ---------------------------------------------------------------------------
// Transactions

void StorageShard::begin() {
  if (txn_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    throw DbError("begin: transaction already active");
  }
  std::unique_lock lock{mutex_};
  if (txn_active_) throw DbError("begin: transaction already active");
  txn_active_ = true;
  undo_log_.clear();
  wal_buffer_.clear();
  change_buffer_.clear();
  if (commit_latency_) txn_begin_time_ = std::chrono::steady_clock::now();
  txn_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  txn_lock_ = std::move(lock);
}

void StorageShard::commit() {
  if (txn_owner_.load(std::memory_order_relaxed) !=
      std::this_thread::get_id()) {
    throw DbError("commit: no active transaction");
  }
  // Adopt the transaction's exclusive lock; released at block end,
  // making the whole batch visible to readers at once. The change
  // delivery runs after that release (sinks may read the shard) but
  // takes its ticket before it, so sinks still see batches in commit
  // order.
  StagedDelivery staged;
  {
    const std::unique_lock lock{std::move(txn_lock_)};
    txn_owner_.store(std::thread::id{}, std::memory_order_relaxed);
    txn_active_ = false;
    undo_log_.clear();
    if (!wal_path_.empty() && !wal_buffer_.empty()) {
      // One concatenation serves both the local append and the
      // replication sink, so the shipped bytes are exactly the bytes on
      // disk (byte-offset bookkeeping on both ends stays trivial).
      std::string batch;
      for (const auto& line : wal_buffer_) {
        batch += line;
        batch += '\n';
      }
      wal_append(batch);
      if (wal_sink_) wal_sink_(batch);
    }
    wal_buffer_.clear();
    if (commit_latency_) {
      commit_latency_->observe(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   txn_begin_time_)
                                   .count());
    }
    staged = stage_delivery();
  }
  deliver(std::move(staged));
}

void StorageShard::rollback() {
  if (txn_owner_.load(std::memory_order_relaxed) !=
      std::this_thread::get_id()) {
    throw DbError("rollback: no active transaction");
  }
  const std::unique_lock lock{std::move(txn_lock_)};
  txn_owner_.store(std::thread::id{}, std::memory_order_relaxed);
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    Table& t = table_ref(it->table);
    switch (it->kind) {
      case UndoOp::Kind::kInsert:
        t.erase(it->row_id);
        break;
      case UndoOp::Kind::kUpdate:
        t.raw_replace(it->row_id, std::move(it->before));
        break;
      case UndoOp::Kind::kDelete:
        t.raw_revive(it->row_id, std::move(it->before));
        break;
    }
  }
  undo_log_.clear();
  wal_buffer_.clear();
  change_buffer_.clear();  // Rolled-back changes are never delivered.
  txn_active_ = false;
}

bool StorageShard::in_transaction() const {
  if (txn_owner_.load(std::memory_order_relaxed) ==
      std::this_thread::get_id()) {
    return true;
  }
  const ReadGuard guard{*this};
  return txn_active_;
}

std::size_t StorageShard::recover() {
  const WriteGuard guard{*this};
  if (wal_path_.empty()) return 0;
  std::ifstream in{wal_path_};
  if (!in) return 0;
  replaying_ = true;
  std::size_t applied = 0;
  std::string line;

  const auto apply_line = [&](const std::string& text) {
    const auto fields = wal_fields(text);
    if (fields.size() < 2) return;
    const std::string& op = fields[0];
    const std::string table = wal_unescape(fields[1]);
    Table& t = table_ref(table);
    const TableDef& def = t.def();
    if (op == "I") {
      Row row;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        row.push_back(deserialize_value(fields[i]));
      }
      t.insert(std::move(row));
      ++applied;
    } else if (op == "U" && fields.size() >= 3) {
      const Value key = deserialize_value(fields[2]);
      NamedValues sets;
      for (std::size_t i = 3; i + 1 < fields.size(); i += 2) {
        sets.emplace_back(wal_unescape(fields[i]),
                          deserialize_value(fields[i + 1]));
      }
      std::optional<RowId> target = def.primary_key.empty()
                                        ? std::optional<RowId>{key.as_int()}
                                        : t.find_pk(key);
      if (target) {
        t.update(*target, sets);
        ++applied;
      }
    } else if (op == "D" && fields.size() >= 3) {
      const Value key = deserialize_value(fields[2]);
      std::optional<RowId> target = def.primary_key.empty()
                                        ? std::optional<RowId>{key.as_int()}
                                        : t.find_pk(key);
      if (target) {
        t.erase(*target);
        ++applied;
      }
    }
  };

  try {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        apply_line(line);
      } catch (const std::exception& e) {
        // A record that fails to apply is either the torn final line a
        // crash mid-append left behind (tolerated: discard it) or
        // corruption in the middle of the log (fatal). Distinguish by
        // whether any further non-empty record follows.
        bool more = false;
        std::string rest;
        while (std::getline(in, rest)) {
          if (!rest.empty()) {
            more = true;
            break;
          }
        }
        if (more) throw;
        ++wal_truncated_;
        telemetry::registry()
            .counter("stampede_db_wal_truncated_records_total")
            .inc();
        std::fprintf(
            stderr,
            "stampede-db: WAL %s: discarded truncated trailing record (%s)\n",
            wal_path_.c_str(), e.what());
        break;
      }
    }
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
  return applied;
}

std::uint64_t StorageShard::wal_truncated_records() const {
  const ReadGuard guard{*this};
  return wal_truncated_;
}

// ---------------------------------------------------------------------------
// Columnar compaction (DESIGN.md §15)

StorageShard::CompactStats StorageShard::compact(const SealOptions& opts) {
  const WriteGuard guard{*this};
  CompactStats stats;
  for (auto& [name, table] : tables_) {
    const SealStats sealed = table->seal(opts);
    stats.segments_built += sealed.segments_built;
    stats.rows_sealed += sealed.rows_sealed;
    stats.tombstones_reclaimed += sealed.tombstones_reclaimed;
  }
  if (stats.segments_built > 0) {
    telemetry::registry()
        .counter("stampede_segment_seals_total")
        .inc(stats.segments_built);
    telemetry::registry()
        .counter("stampede_segment_sealed_rows_total")
        .inc(stats.rows_sealed);
  }
  if (stats.tombstones_reclaimed > 0) {
    telemetry::registry()
        .counter("stampede_segment_tombstones_reclaimed_total")
        .inc(stats.tombstones_reclaimed);
  }
  return stats;
}

std::vector<StorageShard::TableCounts> StorageShard::table_counts() const {
  const ReadGuard guard{*this};
  std::vector<TableCounts> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    out.push_back({name, table->row_count(), table->dead_count(),
                   table->column_store().sealed_rows()});
  }
  return out;
}

bool StorageShard::checkpoint_wal() {
  const WriteGuard guard{*this};
  if (wal_path_.empty() || txn_active_ || wal_sink_) return false;
  // Snapshot of the live rows as plain insert records, tables in map
  // order, rows in ascending RowId order — exactly what replay needs.
  std::string snapshot;
  for (const auto& [name, table] : tables_) {
    const std::string escaped = wal_escape(name);
    table->scan([&](RowId, const Row& row) {
      snapshot += "I|";
      snapshot += escaped;
      for (const auto& value : row) {
        snapshot += '|';
        snapshot += serialize_value(value);
      }
      snapshot += '\n';
    });
  }
  // The rename below replaces the file the append stream points at.
  wal_out_.close();
  wal_out_.clear();
  const std::string tmp = wal_path_ + ".ckpt";
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) return false;
    out << snapshot;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), wal_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  telemetry::registry().counter("stampede_db_wal_checkpoints_total").inc();
  return true;
}

// ---------------------------------------------------------------------------
// Query executor

namespace {

/// One source in the FROM/JOIN chain with its flat column offset.
struct Source {
  std::string alias;
  const Table* table = nullptr;
  std::size_t offset = 0;  ///< First flat column index of this source.
};

/// Maps (possibly qualified) column names to flat indexes over the
/// concatenated wide row.
class ColumnMap {
 public:
  explicit ColumnMap(const std::vector<Source>& sources) {
    for (const auto& source : sources) {
      const auto& cols = source.table->def().columns;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const std::size_t flat = source.offset + i;
        qualified_.emplace(source.alias + "." + cols[i].name, flat);
        const auto [it, inserted] = unqualified_.emplace(cols[i].name, flat);
        if (!inserted) it->second = kAmbiguous;
      }
    }
  }

  /// Flat index of `name`; nullopt when unknown or ambiguous.
  [[nodiscard]] std::optional<std::size_t> try_resolve(
      const std::string& name) const {
    const auto q = qualified_.find(name);
    if (q != qualified_.end()) return q->second;
    const auto u = unqualified_.find(name);
    if (u == unqualified_.end() || u->second == kAmbiguous) {
      return std::nullopt;
    }
    return u->second;
  }

  [[nodiscard]] std::size_t resolve(const std::string& name) const {
    const auto q = qualified_.find(name);
    if (q != qualified_.end()) return q->second;
    const auto u = unqualified_.find(name);
    if (u == unqualified_.end()) {
      throw DbError("query: unknown column '" + name + "'");
    }
    if (u->second == kAmbiguous) {
      throw DbError("query: ambiguous column '" + name +
                    "' — qualify with a table alias");
    }
    return u->second;
  }

 private:
  static constexpr std::size_t kAmbiguous = static_cast<std::size_t>(-1);
  std::unordered_map<std::string, std::size_t> qualified_;
  std::unordered_map<std::string, std::size_t> unqualified_;
};

/// Collects the top-level `=` and IN conjuncts: the shapes an index
/// probe answers.
void collect_index_conjuncts(const Expr& expr,
                             std::vector<const Expr*>& out) {
  if (expr.kind == Expr::Kind::kAnd) {
    for (const auto& child : expr.children) {
      collect_index_conjuncts(*child, out);
    }
    return;
  }
  if ((expr.kind == Expr::Kind::kCompareLiteral && expr.op == CompareOp::kEq) ||
      expr.kind == Expr::Kind::kIn) {
    out.push_back(&expr);
  }
}

/// The values an `=`/IN conjunct admits.
std::span<const Value> conjunct_keys(const Expr& e) {
  if (e.kind == Expr::Kind::kIn) return e.in_values;
  return {&e.literal, 1};
}

/// True when `value` satisfies the `=`/IN conjunct `e` (NULL never does).
bool conjunct_holds(const Expr& e, const Value& value) {
  const auto keys = conjunct_keys(e);
  return std::any_of(keys.begin(), keys.end(), [&](const Value& key) {
    return compare_values(value, CompareOp::kEq, key);
  });
}

/// RowIds of `table` whose indexed `column` equals one of `keys`,
/// ascending and distinct. Ascending RowId is scan order, so every plan
/// enumerates rows — and with them GROUP BY first-occurrence order —
/// alike. NULL keys match nothing (SQL `=`).
template <typename Keys>
std::vector<RowId> index_rows(const Table& table, const std::string& column,
                              const Keys& keys) {
  std::vector<RowId> ids;
  for (const Value& key : keys) {
    if (key.is_null()) continue;
    // Engaged: callers only probe columns has_index() accepted.
    const auto hit = table.index_lookup(column, key).value();
    ids.insert(ids.end(), hit.begin(), hit.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// The `=`/IN conjunct that narrows one source, preferring one on an
/// indexed column. The full predicate still runs afterwards, so a
/// filter only ever narrows.
struct SourceFilter {
  const Expr* expr = nullptr;
  std::size_t col = 0;  ///< Column index within the source's table.
  bool indexed = false;
};

SourceFilter source_filter(const std::vector<const Expr*>& conjuncts,
                           const Source& source, const ColumnMap& columns) {
  const auto& cols = source.table->def().columns;
  SourceFilter best;
  for (const Expr* e : conjuncts) {
    const auto flat = columns.try_resolve(e->column);
    if (!flat || *flat < source.offset ||
        *flat >= source.offset + cols.size()) {
      continue;  // Another source's column, or unknown/ambiguous.
    }
    const std::size_t col = *flat - source.offset;
    const bool indexed = source.table->has_index(cols[col].name);
    if (!best.expr || (indexed && !best.indexed)) {
      best = {e, col, indexed};
      if (indexed) break;
    }
  }
  return best;
}

/// Every column name mentioned anywhere in the expression tree.
void collect_expr_columns(const Expr& expr, std::vector<std::string>& out) {
  if (!expr.column.empty()) out.push_back(expr.column);
  if (!expr.column_rhs.empty()) out.push_back(expr.column_rhs);
  for (const auto& child : expr.children) collect_expr_columns(*child, out);
}

// Aggregator moved to db/aggregate.hpp: the continuous-view engine
// (query/continuous_views.cpp) must fold through the identical
// arithmetic to keep views byte-identical to re-execution.

/// Planner-choice counters (asserted by tests/test_concurrent_queries).
struct PlanCounters {
  telemetry::Counter& base_index =
      telemetry::registry().counter("stampede_db_plan_base_index_total");
  telemetry::Counter& base_scan =
      telemetry::registry().counter("stampede_db_plan_base_scan_total");
  telemetry::Counter& index_join =
      telemetry::registry().counter("stampede_db_plan_index_join_total");
  telemetry::Counter& hash_join =
      telemetry::registry().counter("stampede_db_plan_hash_join_total");
  telemetry::Counter& join_pushdown =
      telemetry::registry().counter("stampede_db_plan_join_pushdown_total");
  telemetry::Counter& semi_join =
      telemetry::registry().counter("stampede_db_plan_semi_join_total");
  telemetry::Counter& columnar =
      telemetry::registry().counter("stampede_db_plan_columnar_total");
  telemetry::Counter& segment_scans =
      telemetry::registry().counter("stampede_segment_scans_total");
  telemetry::Counter& segment_prunes =
      telemetry::registry().counter("stampede_segment_prunes_total");
  telemetry::Counter& segment_range_probes =
      telemetry::registry().counter("stampede_segment_range_probes_total");
};

PlanCounters& plan_counters() {
  static PlanCounters counters;
  return counters;
}

/// Per-thread snapshot of the running query's planner choices; queries
/// never span threads, so thread_local gives race-free attribution.
thread_local PlanInfo g_last_plan;

/// One index probe (tree descent, id sort, row fetch) costs about as
/// much as hashing this many right-table rows: a join takes the
/// index-nested-loop when its distinct probe keys times this stay within
/// the right table's row count, and builds a hash otherwise.
constexpr std::size_t kIndexProbeCost = 4;

/// A semi-join reduction replaces the base scan only when it keeps at
/// most 1/this of the base table's rows; a larger set would cost about
/// as much to fetch row by row as the scan.
constexpr std::size_t kSemiJoinMinShrink = 4;

/// One join's resolved keys.
struct JoinKeys {
  std::size_t left_flat = 0;    ///< Flat column among the sources so far.
  std::size_t left_source = 0;  ///< The source that column belongs to.
  std::size_t right_col = 0;    ///< Column of the joined table.
};

/// Name of the flat column `flat`, which belongs to `source`.
const std::string& column_name(const Source& source, std::size_t flat) {
  return source.table->def().columns[flat - source.offset].name;
}

/// Semi-join reduction of the base. A source reached from the base
/// through inner joins only, with an indexed `=`/IN conjunct, is read
/// through that index; its join keys are then walked back to the base
/// through the indexed left columns of each join on the path. What
/// comes out — ascending RowIds — is every base row that can still
/// produce output: a base row outside it has no partner on the path that
/// satisfies the conjunct, and an inner join drops it. Nothing else is
/// dropped, because the joins and the full predicate still run. nullopt
/// when no source qualifies or the set would not be much smaller than
/// the base (a scan is as cheap then).
std::optional<std::vector<RowId>> semi_join_base(
    const std::vector<Source>& sources, const std::vector<JoinSpec>& joins,
    const std::vector<JoinKeys>& keys,
    const std::vector<SourceFilter>& filters) {
  const std::size_t base_rows = sources[0].table->row_count();
  for (std::size_t s = 1; s < sources.size(); ++s) {
    if (!filters[s].indexed) continue;
    bool usable = true;
    for (std::size_t k = s; k != 0 && usable; k = keys[k - 1].left_source) {
      const JoinKeys& jk = keys[k - 1];
      const Source& parent = sources[jk.left_source];
      // A LEFT OUTER join keeps the parent row without a partner.
      usable = !joins[k - 1].left_outer &&
               parent.table->has_index(column_name(parent, jk.left_flat));
    }
    if (!usable) continue;
    const Table& table = *sources[s].table;
    std::vector<RowId> ids =
        index_rows(table, table.def().columns[filters[s].col].name,
                   conjunct_keys(*filters[s].expr));
    for (std::size_t k = s; k != 0; k = keys[k - 1].left_source) {
      const JoinKeys& jk = keys[k - 1];
      const Table& child = *sources[k].table;
      std::unordered_set<Value> join_values;
      for (const RowId id : ids) {
        if (const Row* row = child.fetch(id)) {
          join_values.insert((*row)[jk.right_col]);
        }
      }
      const Source& parent = sources[jk.left_source];
      ids = index_rows(*parent.table, column_name(parent, jk.left_flat),
                       join_values);
    }
    if (ids.size() * kSemiJoinMinShrink <= base_rows) return ids;
  }
  return std::nullopt;
}

struct GroupKeyHash {
  std::size_t operator()(const Row* row) const noexcept {
    return group_rows_hash(*row, row->size());
  }
};

struct GroupKeyEq {
  bool operator()(const Row* a, const Row* b) const noexcept {
    return a->size() == b->size() && group_rows_equal(*a, *b, a->size());
  }
};

}  // namespace

const PlanInfo& last_plan_info() noexcept { return g_last_plan; }

ResultSet StorageShard::execute(const Select& select) const {
  const ReadGuard guard{*this};
  return execute_unlocked(select);
}

ResultSet StorageShard::execute_unlocked(const Select& select) const {
  g_last_plan = {};
  // Columnar fast path: a single-source query over a table with sealed
  // segments takes the vectorized scan (segment.cpp) when its shape is
  // supported; results are byte-identical to the row path below, so the
  // two are interchangeable mid-workload.
  if (select.joins().empty()) {
    const Table& base = table_ref(select.table());
    if (!base.column_store().empty()) {
      if (auto columnar = execute_columnar(base, select, g_last_plan)) {
        PlanCounters& counters = plan_counters();
        counters.columnar.inc();
        if (g_last_plan.segments_scanned > 0) {
          counters.segment_scans.inc(g_last_plan.segments_scanned);
        }
        if (g_last_plan.segments_pruned > 0) {
          counters.segment_prunes.inc(g_last_plan.segments_pruned);
        }
        if (g_last_plan.range_index_probes > 0) {
          counters.segment_range_probes.inc(g_last_plan.range_index_probes);
        }
        return std::move(*columnar);
      }
    }
  }
  // Assemble the source chain and the flat column map.
  std::vector<Source> sources;
  {
    const Table& base = table_ref(select.table());
    sources.push_back({select.alias(), &base, 0});
    std::size_t offset = base.def().columns.size();
    for (const auto& join : select.joins()) {
      const Table& t = table_ref(join.table);
      sources.push_back({join.alias, &t, offset});
      offset += t.def().columns.size();
    }
  }
  const ColumnMap columns{sources};
  const std::size_t total_width =
      sources.back().offset + sources.back().table->def().columns.size();

  // Join keys: each left column resolves against the sources joined so
  // far, each right column on its own table.
  std::vector<JoinKeys> join_keys;
  join_keys.reserve(select.joins().size());
  for (std::size_t j = 0; j < select.joins().size(); ++j) {
    const JoinSpec& join = select.joins()[j];
    const auto right_col =
        sources[j + 1].table->def().column_index(join.right_col);
    if (!right_col) {
      throw DbError("join: unknown column '" + join.right_col + "' on " +
                    join.table);
    }
    const std::vector<Source> left_sources(
        sources.begin(), sources.begin() + static_cast<std::ptrdiff_t>(j + 1));
    const std::size_t left_flat = ColumnMap{left_sources}.resolve(join.left_col);
    std::size_t left_source = j;
    while (sources[left_source].offset > left_flat) --left_source;
    join_keys.push_back({left_flat, left_source, *right_col});
  }

  // Planner: flat columns the query actually reads (projection, groups,
  // aggregates, predicate, join keys). Everything else is materialized
  // as NULL in the wide rows, so aggregate-only queries over joins stop
  // copying every text column. Empty mask = keep every column
  // (SELECT *, or a name the residual evaluator must diagnose itself).
  std::vector<char> needed;
  if (!select.selected().empty() || !select.aggs().empty() ||
      !select.groups().empty()) {
    needed.assign(total_width, 0);
    const auto mark = [&](const std::string& name) {
      const auto flat = columns.try_resolve(name);
      if (flat) {
        needed[*flat] = 1;
      } else {
        // Unknown/ambiguous: disable pruning so the error (or the
        // residual evaluation) surfaces exactly where it always did.
        needed.clear();
      }
    };
    for (const auto& name : select.selected()) {
      if (needed.empty()) break;
      mark(name);
    }
    for (const auto& g : select.groups()) {
      if (needed.empty()) break;
      mark(g);
    }
    for (const auto& spec : select.aggs()) {
      if (needed.empty()) break;
      if (!spec.column.empty()) mark(spec.column);
    }
    if (!needed.empty() && select.predicate()) {
      std::vector<std::string> pred_cols;
      collect_expr_columns(*select.predicate(), pred_cols);
      for (const auto& name : pred_cols) {
        if (needed.empty()) break;
        mark(name);
      }
    }
    for (std::size_t j = 0; !needed.empty() && j < join_keys.size(); ++j) {
      needed[join_keys[j].left_flat] = 1;
      needed[sources[j + 1].offset + join_keys[j].right_col] = 1;
    }
  }
  const auto column_needed = [&](std::size_t flat) {
    return needed.empty() || needed[flat] != 0;
  };

  // The `=`/IN conjunct narrowing each source, if any.
  std::vector<SourceFilter> filters(sources.size());
  if (select.predicate()) {
    std::vector<const Expr*> conjuncts;
    collect_index_conjuncts(*select.predicate(), conjuncts);
    for (std::size_t k = 0; k < sources.size(); ++k) {
      filters[k] = source_filter(conjuncts, sources[k], columns);
    }
  }

  // 1. Base rows — through the base's own indexed conjunct when it has
  //    one, else through a semi-join reduction when one applies, else a
  //    scan.
  std::vector<Row> wide;
  {
    const Table& base = *sources[0].table;
    auto add_row = [&](const Row& row) {
      Row w;
      w.reserve(row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        w.push_back(column_needed(i) ? row[i] : Value::null());
      }
      wide.push_back(std::move(w));
    };
    std::optional<std::vector<RowId>> candidates;
    if (filters[0].indexed) {
      candidates = index_rows(base, base.def().columns[filters[0].col].name,
                              conjunct_keys(*filters[0].expr));
    } else {
      candidates = semi_join_base(sources, select.joins(), join_keys, filters);
      if (candidates) {
        plan_counters().semi_join.inc();
        ++g_last_plan.semi_joins;
      }
    }
    if (candidates) {
      plan_counters().base_index.inc();
      ++g_last_plan.base_index;
      wide.reserve(candidates->size());
      for (const RowId id : *candidates) {
        if (const Row* row = base.fetch(id)) add_row(*row);
      }
    } else {
      plan_counters().base_scan.inc();
      ++g_last_plan.base_scan;
      base.scan([&](RowId, const Row& row) { add_row(row); });
    }
  }

  // 2. Joins, left to right. Each left row's matches come out in
  //    ascending RowId order whichever plan runs, so plans never change
  //    bytes. The matches are gathered per distinct probe key: through
  //    the right table's join index when those keys are few against its
  //    size (index-nested-loop), else by one pass over the right table
  //    — narrowed through the index of a pushed-down conjunct when it
  //    has one — keeping only rows some left row wants (hash join).
  for (std::size_t j = 0; j < select.joins().size(); ++j) {
    const JoinSpec& join = select.joins()[j];
    const Source& source = sources[j + 1];
    const Table& right = *source.table;
    const std::size_t right_col = join_keys[j].right_col;
    const std::size_t left_index = join_keys[j].left_flat;
    const std::size_t right_width = right.def().columns.size();
    const SourceFilter& filter = filters[j + 1];
    const auto filter_pass = [&](const Row& row) {
      return !filter.expr || conjunct_holds(*filter.expr, row[filter.col]);
    };

    std::unordered_map<Value, std::vector<const Row*>> matches;
    matches.reserve(wide.size());
    for (const Row& left_row : wide) {
      if (!left_row[left_index].is_null()) {
        matches.try_emplace(left_row[left_index]);
      }
    }
    if (right.has_index(join.right_col) &&
        matches.size() * kIndexProbeCost <= right.row_count()) {
      plan_counters().index_join.inc();
      ++g_last_plan.index_joins;
      for (auto& [key, rows] : matches) {
        for (const RowId id :
             index_rows(right, join.right_col, std::span{&key, 1})) {
          const Row* row = right.fetch(id);
          if (row && filter_pass(*row)) rows.push_back(row);
        }
      }
    } else {
      plan_counters().hash_join.inc();
      ++g_last_plan.hash_joins;
      const auto build_add = [&](const Row& row) {
        if (!filter_pass(row) || row[right_col].is_null()) return;
        const auto it = matches.find(row[right_col]);
        if (it != matches.end()) it->second.push_back(&row);
      };
      if (filter.indexed) {
        plan_counters().join_pushdown.inc();
        ++g_last_plan.join_pushdowns;
        for (const RowId id :
             index_rows(right, right.def().columns[filter.col].name,
                        conjunct_keys(*filter.expr))) {
          if (const Row* row = right.fetch(id)) build_add(*row);
        }
      } else {
        right.scan([&](RowId, const Row& row) { build_add(row); });
      }
    }

    const auto append_right = [&](Row& w, const Row& match) {
      for (std::size_t i = 0; i < right_width; ++i) {
        w.push_back(column_needed(source.offset + i) ? match[i]
                                                     : Value::null());
      }
    };
    std::vector<Row> joined;
    joined.reserve(wide.size());
    for (auto& left_row : wide) {
      const Value& key = left_row[left_index];
      const auto it = key.is_null() ? matches.end() : matches.find(key);
      if (it == matches.end() || it->second.empty()) {
        if (join.left_outer) {
          Row w = std::move(left_row);
          w.resize(w.size() + right_width, Value::null());
          joined.push_back(std::move(w));
        }
        continue;
      }
      const std::vector<const Row*>& rows = it->second;
      for (std::size_t m = 0; m < rows.size(); ++m) {
        // The last match takes the left row itself instead of a copy.
        Row w;
        if (m + 1 < rows.size()) {
          w = left_row;
        } else {
          w = std::move(left_row);
        }
        w.reserve(w.size() + right_width);
        append_right(w, *rows[m]);
        joined.push_back(std::move(w));
      }
    }
    wide = std::move(joined);
  }

  // 3. Residual filter (the full predicate — index probes and pushdowns
  //    above only narrowed the candidate set).
  if (select.predicate()) {
    std::vector<Row> filtered;
    filtered.reserve(wide.size());
    for (auto& row : wide) {
      const bool keep =
          evaluate(*select.predicate(), [&](const std::string& name) {
            return row[columns.resolve(name)];
          });
      if (keep) filtered.push_back(std::move(row));
    }
    wide = std::move(filtered);
  }

  ResultSet result;

  // 4. Aggregate or project.
  if (!select.groups().empty() || !select.aggs().empty()) {
    std::vector<std::size_t> group_cols;
    group_cols.reserve(select.groups().size());
    for (const auto& g : select.groups()) {
      group_cols.push_back(columns.resolve(g));
    }
    struct GroupState {
      Row key;
      std::vector<Aggregator> aggs;
    };
    // Insertion-ordered states in a deque (stable addresses), looked up
    // by hashed key rows — no serialized string key per input row.
    std::deque<GroupState> groups;
    std::unordered_map<const Row*, std::size_t, GroupKeyHash, GroupKeyEq>
        index_of;

    for (const auto& row : wide) {
      Row key;
      key.reserve(group_cols.size());
      for (const std::size_t c : group_cols) key.push_back(row[c]);
      auto it = index_of.find(&key);
      if (it == index_of.end()) {
        GroupState state;
        state.key = std::move(key);
        state.aggs.reserve(select.aggs().size());
        for (const auto& spec : select.aggs()) {
          Aggregator agg;
          agg.fn = spec.fn;
          state.aggs.push_back(agg);
        }
        groups.push_back(std::move(state));
        it = index_of.emplace(&groups.back().key, groups.size() - 1).first;
      }
      GroupState& state = groups[it->second];
      for (std::size_t a = 0; a < select.aggs().size(); ++a) {
        const AggSpec& spec = select.aggs()[a];
        if (spec.column.empty()) {
          state.aggs[a].feed_row();
        } else {
          state.aggs[a].feed(row[columns.resolve(spec.column)]);
        }
      }
    }
    // With aggregates but no groups and no input rows, SQL still emits
    // one row (e.g. COUNT(*) == 0).
    if (groups.empty() && select.groups().empty() && !select.aggs().empty()) {
      GroupState state;
      for (const auto& spec : select.aggs()) {
        Aggregator agg;
        agg.fn = spec.fn;
        state.aggs.push_back(agg);
      }
      groups.push_back(std::move(state));
    }

    for (const auto& g : select.groups()) result.columns.push_back(g);
    for (const auto& spec : select.aggs()) result.columns.push_back(spec.alias);
    result.rows.reserve(groups.size());
    for (auto& state : groups) {
      Row out = std::move(state.key);
      out.reserve(out.size() + state.aggs.size());
      for (const auto& agg : state.aggs) out.push_back(agg.result());
      result.rows.push_back(std::move(out));
    }
  } else {
    // Projection.
    std::vector<std::size_t> proj;
    if (select.selected().empty()) {
      for (const auto& source : sources) {
        const auto& cols = source.table->def().columns;
        for (std::size_t i = 0; i < cols.size(); ++i) {
          proj.push_back(source.offset + i);
          result.columns.push_back(sources.size() == 1
                                       ? cols[i].name
                                       : source.alias + "." + cols[i].name);
        }
      }
    } else {
      for (const auto& name : select.selected()) {
        proj.push_back(columns.resolve(name));
        result.columns.push_back(name);
      }
    }
    result.rows.reserve(wide.size());
    for (const auto& row : wide) {
      Row out;
      out.reserve(proj.size());
      for (const std::size_t c : proj) out.push_back(row[c]);
      result.rows.push_back(std::move(out));
    }
  }

  // 5. DISTINCT — dedup on hashed rows; pointers stay valid because
  //    `unique` never reallocates (reserved to the input size).
  if (select.is_distinct()) {
    std::unordered_set<const Row*, GroupKeyHash, GroupKeyEq> seen;
    seen.reserve(result.rows.size());
    std::vector<Row> unique;
    unique.reserve(result.rows.size());
    for (auto& row : result.rows) {
      if (seen.find(&row) != seen.end()) continue;
      unique.push_back(std::move(row));
      seen.insert(&unique.back());
    }
    result.rows = std::move(unique);
  }

  // 6–7. ORDER BY + LIMIT (bounded top-k when a limit is present).
  sort_and_limit(result, select.orders(), select.row_limit());
  return result;
}

std::optional<Value> StorageShard::scalar(const Select& select) const {
  const ReadGuard guard{*this};
  const ResultSet rs = execute_unlocked(select);
  if (rs.rows.empty() || rs.rows.front().empty()) return std::nullopt;
  return rs.rows.front().front();
}

}  // namespace stampede::db
