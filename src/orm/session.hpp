#pragma once
// Unit-of-work session (the SQLAlchemy-substitute surface the loader uses).
//
// Inserts and primary-key updates are queued in arrival order and flushed
// in batches inside one transaction — the "batching similar inserts
// together" optimization the paper credits for Pegasus-scale loading
// performance (§V-D). An insert into a table with a primary key draws
// its key from the shard's sequence when it is queued, so callers that
// need the key (workflow → wf_id used by every child row) never cut a
// batch short. Keys are drawn in queue order, which is the order the
// rows are written, so they match what an immediate insert would get.
// Reads must call flush() (or use the flushing helpers) to see queued
// state.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>

#include "db/database.hpp"

namespace stampede::orm {

struct SessionStats {
  std::uint64_t queued = 0;
  std::uint64_t flushed_ops = 0;
  std::uint64_t flush_batches = 0;
};

class Session {
 public:
  /// `batch_size`: pending operations that trigger an automatic flush.
  explicit Session(db::Database& database, std::size_t batch_size = 256)
      : db_(&database), batch_size_(batch_size) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session();

  /// Queues an insert and returns its primary key, reserved now
  /// (StorageShard::reserve_pk); `values` must not set the key. Returns
  /// 0 for a table without a primary key. A batch that rolls back
  /// leaves its reserved keys unused.
  std::int64_t add(std::string table, db::NamedValues values);

  /// Queues an indexed single-row update by primary key.
  void add_update_pk(std::string table, std::int64_t pk,
                     db::NamedValues sets);

  /// Writes all pending operations, in order, inside one transaction.
  void flush();

  /// Drops every pending operation unwritten (crash simulation: what a
  /// killed process loses).
  void discard() noexcept { pending_.clear(); }

  /// Invoked after every successful flush() commit with the number of
  /// operations written. The loader uses this to observe true
  /// publish→commit latency: rows are durable exactly when the hook
  /// fires. One hook per session; pass {} to clear.
  void set_commit_hook(std::function<void(std::size_t)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Predicate update against flushed state (flushes first).
  std::size_t update(const std::string& table, const db::ExprPtr& predicate,
                     const db::NamedValues& sets);

  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] db::Database& database() noexcept { return *db_; }

 private:
  struct InsertOp {
    std::string table;
    db::NamedValues values;
  };
  struct UpdatePkOp {
    std::string table;
    std::int64_t pk;
    db::NamedValues sets;
  };
  using Op = std::variant<InsertOp, UpdatePkOp>;

  /// The primary-key column of `table` ("" when it has none), cached.
  const std::string& primary_key(const std::string& table);

  db::Database* db_;
  std::size_t batch_size_;
  std::deque<Op> pending_;
  SessionStats stats_;
  std::function<void(std::size_t)> commit_hook_;
  std::unordered_map<std::string, std::string> primary_keys_;
};

}  // namespace stampede::orm
