#pragma once
// The relational archive engine (SQLite substitute, DESIGN.md §2).
//
// A StorageShard is one self-contained partition of the archive: its own
// tables, undo log, write-ahead log file and reader-writer lock.
// `Database` is an alias for StorageShard: a one-shard archive, the
// original single-partition engine. ShardedDatabase (sharded_database.hpp)
// composes N of these behind a partition-routing facade.
//
// Locking discipline (DESIGN.md §10; same documentation contract as
// broker.hpp):
//   1. One writer-preferring reader-writer lock (db::SharedMutex — see
//      shared_mutex.hpp for why std::shared_mutex's reader preference
//      would starve the loader) per shard. Public read entry points
//      (execute, scalar, row_count, has_table, table_names, table_def,
//      table_version(s), in_transaction, wal_truncated_records) take a
//      shared lock, so any number of statistics / analyzer / dashboard
//      queries proceed concurrently against a shard; public write entry
//      points (create_table, set_pk_allocation, reserve_pk, insert,
//      update, update_pk, delete_rows, recover) take the exclusive lock.
//   2. A transaction owns the exclusive lock for its whole begin() →
//      commit()/rollback() window (`txn_lock_`). Readers therefore see
//      either all of a committed batch or none of it — the snapshot
//      consistency stampede_statistics needs while a loader lane is
//      mid-flush. The owning thread is recorded in `txn_owner_`; its
//      own statement calls (and reads) pass straight through instead of
//      re-locking, which makes the re-entrancy the old recursive_mutex
//      papered over explicit. A transaction must begin and end on the
//      same thread; begin() from a second thread blocks until the open
//      transaction finishes.
//   3. Every public method is exactly guard + private `*_unlocked`
//      call; the `*_unlocked` internals assume the caller holds the
//      right lock and never lock themselves, so no path locks twice
//      (the lock is not recursive in either mode).
//
// Supports transactions with rollback via an undo log, and an optional
// write-ahead log file for crash recovery / reload.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/change.hpp"
#include "db/query.hpp"
#include "db/shared_mutex.hpp"
#include "db/table.hpp"

namespace stampede::telemetry {
class Histogram;
}  // namespace stampede::telemetry

namespace stampede::db {

/// Column-name/value pairs, the convenient insert/update currency.
using NamedValues = std::vector<std::pair<std::string, Value>>;

/// Planner choices made by the most recent execute() on this thread.
/// Reset at the start of every query; read by the query layer to attach
/// plan attributes to query spans and the slow-query log without
/// snapshotting the process-wide counters.
struct PlanInfo {
  std::uint64_t base_index = 0;     ///< Base rows fetched via index probe.
  std::uint64_t base_scan = 0;      ///< Base rows fetched via full scan.
  std::uint64_t index_joins = 0;    ///< Index-nested-loop joins taken.
  std::uint64_t hash_joins = 0;     ///< Hash joins taken.
  std::uint64_t join_pushdowns = 0; ///< Build sides narrowed via pushdown.
  std::uint64_t semi_joins = 0;     ///< Bases narrowed by a semi-join
                                    ///< reduction (also in base_index).
  std::uint64_t columnar = 0;           ///< Answered by the vectorized
                                        ///< segment-scan path (§15).
  std::uint64_t segments_scanned = 0;   ///< Segments scanned after pruning.
  std::uint64_t segments_pruned = 0;    ///< Segments skipped via zone maps.
  std::uint64_t range_index_probes = 0; ///< Sorted-column range probes.
};

/// The PlanInfo for the last execute() that ran on the calling thread.
[[nodiscard]] const PlanInfo& last_plan_info() noexcept;

class StorageShard {
 public:
  /// In-memory shard.
  StorageShard() = default;

  /// Shard backed by a write-ahead log: existing contents are
  /// replayed on open, subsequent committed writes are appended.
  /// Note: the schema must be recreated (create_table) before replay
  /// touches a table, so construct, create tables, then call recover().
  explicit StorageShard(std::string wal_path) : wal_path_(std::move(wal_path)) {}

  StorageShard(const StorageShard&) = delete;
  StorageShard& operator=(const StorageShard&) = delete;

  // -- schema -----------------------------------------------------------------

  /// Creates a table; throws common::DbError if the name exists.
  void create_table(TableDef def);

  [[nodiscard]] bool has_table(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> table_names() const;
  [[nodiscard]] const TableDef& table_def(const std::string& name) const;

  // -- partitioning -----------------------------------------------------------

  /// Configures primary-key striding for shard `offset` of `step` total:
  /// every table (existing and future) auto-assigns keys from the
  /// congruence class offset+1 mod step, so keys are globally unique
  /// across the shard set and (key-1) mod step recovers the owner.
  /// (0, 1) — the default — is the ordinary single-shard sequence.
  /// Must be called before any inserts.
  void set_pk_allocation(std::int64_t offset, std::int64_t step);

  /// Draws the next key of `table`'s strided primary-key sequence under
  /// the exclusive lock (Table::reserve_pk), so a batched insert knows
  /// its key before it is written. Throws common::DbError when the table
  /// has no declared primary key.
  std::int64_t reserve_pk(const std::string& table);

  /// Installs a per-shard commit-latency histogram (seconds from
  /// begin() to commit()); nullptr detaches. The histogram must outlive
  /// the shard (telemetry registry instruments do).
  void set_commit_latency_sink(telemetry::Histogram* sink);

  // -- change capture ---------------------------------------------------------

  /// Registers the shard's change sink (one per shard; empty detaches).
  /// After this returns, every committed write to a table in `tables`
  /// (empty = all tables) is delivered as a CommittedBatch — see
  /// change.hpp for the delivery contract. `shard_ordinal` is stamped
  /// into each batch (ShardedDatabase passes the shard index).
  void set_change_sink(ChangeSink sink, std::vector<std::string> tables = {},
                       std::size_t shard_ordinal = 0);

  /// Visits every live row of `table` in ascending RowId order under one
  /// shared lock (a consistent snapshot: no commit interleaves). The
  /// view engine's registration scan.
  void for_each_row(const std::string& table,
                    const std::function<void(RowId, const Row&)>& fn) const;

  // -- DML --------------------------------------------------------------------

  /// Inserts named values (missing columns become NULL / defaults).
  /// Returns the primary-key value assigned (or the row slot when the
  /// table has no declared PK).
  std::int64_t insert(const std::string& table, const NamedValues& values);

  /// Updates all rows matching `predicate`; returns the count updated.
  std::size_t update(const std::string& table, const ExprPtr& predicate,
                     const NamedValues& sets);

  /// Indexed single-row update by primary-key value; returns false when
  /// no such row exists. This is the loader's hot path (O(1) vs the
  /// predicate scan of update()).
  bool update_pk(const std::string& table, std::int64_t pk,
                 const NamedValues& sets);

  /// Deletes all rows matching `predicate`; returns the count deleted.
  std::size_t delete_rows(const std::string& table, const ExprPtr& predicate);

  /// Row count of a table.
  [[nodiscard]] std::size_t row_count(const std::string& table) const;

  // -- queries ------------------------------------------------------------------

  [[nodiscard]] ResultSet execute(const Select& select) const;

  /// Single-value convenience: first row/column of the result, or
  /// nullopt when the result is empty.
  [[nodiscard]] std::optional<Value> scalar(const Select& select) const;

  /// Monotonic per-table modification counter (bumped by every insert /
  /// update / delete / rollback step). Two equal observations bracket a
  /// window with no committed change — the version-keyed query cache
  /// (query::QueryExecutor) is built on this.
  [[nodiscard]] std::uint64_t table_version(const std::string& name) const;

  /// Versions of several tables under one shared lock (one consistent
  /// observation — no commit can interleave between the reads).
  [[nodiscard]] std::vector<std::uint64_t> table_versions(
      const std::vector<std::string>& names) const;

  // -- transactions ---------------------------------------------------------------

  /// Begins a transaction; holds the shard's exclusive lock until
  /// commit()/rollback() so readers never see a partial batch. A nested
  /// begin on the owning thread throws; a begin from another thread
  /// waits for the open transaction to finish.
  void begin();
  /// Commits (appends buffered WAL records) and releases the lock.
  void commit();
  /// Rolls back every change since begin() and releases the lock.
  void rollback();
  [[nodiscard]] bool in_transaction() const;

  // -- persistence ------------------------------------------------------------------

  /// Replays the WAL file (if configured and present). Call after the
  /// schema has been created. Returns the number of operations applied.
  /// A corrupt *final* record — the partial line a crash mid-append
  /// leaves behind — is discarded with a warning counter instead of
  /// failing recovery; corruption anywhere earlier still throws.
  std::size_t recover();

  /// Number of truncated trailing WAL records discarded by recover().
  [[nodiscard]] std::uint64_t wal_truncated_records() const;

  /// Receives every byte range appended to the WAL file (one call per
  /// autocommit line or per committed batch; `bytes` includes the
  /// trailing newlines). The cluster layer ships these to a follower
  /// replica. Invoked while the shard's exclusive lock is held, so the
  /// sink must not call back into the shard; empty detaches. The sink
  /// fires only for a WAL-backed shard (wal_path non-empty) and never
  /// during recover() replay.
  using WalSink = std::function<void(std::string_view bytes)>;
  void set_wal_sink(WalSink sink);

  // -- columnar compaction (segment.hpp, DESIGN.md §15) -----------------------

  struct CompactStats {
    std::size_t segments_built = 0;
    std::size_t rows_sealed = 0;
    std::size_t tombstones_reclaimed = 0;
  };

  /// Seals cold row ranges of every table into columnar segments under
  /// the exclusive lock (so it serializes with committing lanes exactly
  /// like any writer) and reclaims tombstoned payloads inside sealed
  /// ranges. Logical content is unchanged: table versions do not move,
  /// cached results stay valid, and no change-capture deltas fire.
  CompactStats compact(const SealOptions& opts = {});

  /// Live/dead row counts per table, one consistent observation (feeds
  /// the stampede_db_tombstones_total / stampede_db_live_rows gauges).
  struct TableCounts {
    std::string table;
    std::size_t live = 0;
    std::size_t dead = 0;
    std::size_t sealed = 0;  ///< Rows currently inside segments.
  };
  [[nodiscard]] std::vector<TableCounts> table_counts() const;

  /// Rewrites the WAL as a snapshot of the current live rows (atomic
  /// tmp+rename), bounding replay by table size instead of total write
  /// history. Returns false when skipped: not WAL-backed, a transaction
  /// is open, or a replication wal_sink is attached (followers track
  /// byte offsets into the append-only file, which a rewrite would
  /// break). Caveat: tables with no declared PK are addressed by RowId
  /// in U/D records, and a checkpoint compacts slots — like the
  /// pre-existing rolled-back-insert drift, this is only safe for
  /// insert-only PK-less tables (all of stampede's are).
  bool checkpoint_wal();

 private:
  /// Shared lock for a public read entry point — unless this thread
  /// owns the open transaction (txn_lock_ already excludes everyone
  /// else).
  class ReadGuard {
   public:
    explicit ReadGuard(const StorageShard& shard) {
      if (shard.txn_owner_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id()) {
        return;
      }
      shared_ = std::shared_lock{shard.mutex_};
    }

   private:
    std::shared_lock<SharedMutex> shared_;
  };

  /// Exclusive lock for a public write entry point — pass-through when
  /// this thread's open transaction already holds it.
  class WriteGuard {
   public:
    explicit WriteGuard(const StorageShard& shard) {
      if (shard.txn_owner_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id()) {
        return;
      }
      lock_ = std::unique_lock{shard.mutex_};
    }

   private:
    std::unique_lock<SharedMutex> lock_;
  };

  Table& table_ref(const std::string& name);
  const Table& table_ref(const std::string& name) const;
  void wal_write(const std::string& line);
  /// Appends committed bytes to the WAL file through the shard's open
  /// stream (opened on first use) and flushes them to the OS.
  void wal_append(std::string_view bytes);

  /// One commit's worth of captured changes on its way out to the sink.
  struct StagedDelivery {
    bool armed = false;
    std::uint64_t ticket = 0;
    CommittedBatch batch;
    ChangeSink sink;
  };
  /// True when writes to `table` should be captured.
  [[nodiscard]] bool capturing(const std::string& table) const;
  /// Records one mutation into the capture buffer (caller checked
  /// capturing()).
  void capture(RowChange::Kind kind, const std::string& table, RowId row_id,
               Row before, Row after);
  /// Takes a delivery ticket and moves the capture buffer out. Must run
  /// while still holding the exclusive lock — the ticket order IS the
  /// commit order.
  StagedDelivery stage_delivery();
  /// Calls the sink once the staged ticket's turn comes. Must run with
  /// no shard lock held: a blocked predecessor would otherwise hold the
  /// lock across an arbitrary sink, and sinks are allowed to read the
  /// shard.
  void deliver(StagedDelivery&& staged);
  /// Guard + fn() + autocommit delivery: the shape of every public
  /// write entry point.
  template <typename Fn>
  auto write_entry(Fn&& fn) -> decltype(fn());

  std::int64_t insert_unlocked(const std::string& table,
                               const NamedValues& values);
  std::size_t update_unlocked(const std::string& table,
                              const ExprPtr& predicate,
                              const NamedValues& sets);
  bool update_pk_unlocked(const std::string& table, std::int64_t pk,
                          const NamedValues& sets);
  std::size_t delete_rows_unlocked(const std::string& table,
                                   const ExprPtr& predicate);
  [[nodiscard]] ResultSet execute_unlocked(const Select& select) const;

  struct UndoOp {
    enum class Kind { kInsert, kUpdate, kDelete };
    Kind kind = Kind::kInsert;
    std::string table;
    RowId row_id = 0;
    Row before;  ///< For update/delete.
  };

  mutable SharedMutex mutex_;
  /// Held for the whole lifetime of an open transaction; empty otherwise.
  std::unique_lock<SharedMutex> txn_lock_;
  /// Thread that called begin(); default id when no transaction is open.
  std::atomic<std::thread::id> txn_owner_{};

  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::string wal_path_;
  /// Append stream on wal_path_, kept open across commits; closed by
  /// checkpoint_wal() so the next append opens the renamed-in file.
  std::ofstream wal_out_;
  bool txn_active_ = false;
  bool replaying_ = false;
  std::vector<UndoOp> undo_log_;
  std::vector<std::string> wal_buffer_;  ///< Committed at commit().

  WalSink wal_sink_;
  std::int64_t pk_offset_ = 0;  ///< This shard's congruence class.
  std::int64_t pk_step_ = 1;    ///< Total shard count.
  std::uint64_t wal_truncated_ = 0;
  telemetry::Histogram* commit_latency_ = nullptr;
  std::chrono::steady_clock::time_point txn_begin_time_{};

  // Change capture (all guarded by the exclusive lock): the sink, the
  // table filter, the in-flight buffer and the next delivery ticket.
  ChangeSink change_sink_;
  std::set<std::string> capture_tables_;
  std::vector<RowChange> change_buffer_;
  std::size_t shard_ordinal_ = 0;
  std::uint64_t delivery_ticket_ = 0;
  // Ticketed hand-off: deliveries wait their turn here, outside the
  // shard lock, so sink calls serialize in commit order without ever
  // blocking a committer inside the lock.
  std::mutex delivery_mutex_;
  std::condition_variable delivery_cv_;
  std::uint64_t delivery_next_ = 0;  ///< Guarded by delivery_mutex_.
};

/// The single-partition archive: exactly one shard. Existing code built
/// against `Database` is untouched by the sharding refactor.
using Database = StorageShard;

}  // namespace stampede::db
