// The read-path overhaul (DESIGN.md §10): reader-writer locking of the
// archive, the version-keyed query cache, and the planner's index-aware
// join choices — including the telemetry counters each decision bumps.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "db/database.hpp"
#include "db/sharded_database.hpp"
#include "query/query_executor.hpp"
#include "telemetry/metrics.hpp"

namespace db = stampede::db;
namespace query = stampede::query;
namespace telemetry = stampede::telemetry;
using db::Value;
using stampede::common::DbError;

namespace {

db::TableDef events_def() {
  db::TableDef t;
  t.name = "events";
  t.primary_key = "id";
  t.columns = {
      {"id", db::ColumnType::kInteger, false, std::nullopt},
      {"batch", db::ColumnType::kInteger, true, std::nullopt},
      {"state", db::ColumnType::kText, false, std::nullopt},
      {"dur", db::ColumnType::kReal, false, std::nullopt},
  };
  t.indexes = {{"ix_events_state", {"state"}, false}};
  return t;
}

db::TableDef batches_def() {
  db::TableDef t;
  t.name = "batches";
  t.primary_key = "batch_id";
  t.columns = {
      {"batch_id", db::ColumnType::kInteger, false, std::nullopt},
      {"label", db::ColumnType::kText, false, std::nullopt},
  };
  t.indexes = {{"ix_batches_label", {"label"}, false}};
  return t;
}

/// Steps of a batch, reachable from `batches` through an indexed join
/// column (what a semi-join reduction walks back through).
db::TableDef steps_def() {
  db::TableDef t;
  t.name = "steps";
  t.primary_key = "step_id";
  t.columns = {
      {"step_id", db::ColumnType::kInteger, false, std::nullopt},
      {"batch", db::ColumnType::kInteger, true, std::nullopt},
  };
  t.indexes = {{"ix_steps_batch", {"batch"}, false}};
  return t;
}

std::uint64_t counter_value(const char* name) {
  return telemetry::registry().counter(name).value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader-writer concurrency

// Readers racing a transactional writer must never observe a partial
// batch: each committed transaction inserts kRowsPerBatch event rows AND
// one batch row, so at any shared-lock acquisition the two counts are in
// exact ratio.
TEST(ConcurrentQueries, ReadersNeverSeePartialTransaction) {
  constexpr int kBatches = 40;
  constexpr int kRowsPerBatch = 25;

  db::Database d;
  d.create_table(events_def());
  d.create_table(batches_def());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> observations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto events =
            d.scalar(db::Select{"events"}.count_all("n"))->as_int();
        const auto batches =
            d.scalar(db::Select{"batches"}.count_all("n"))->as_int();
        // Two separate statements, so the pair itself may straddle a
        // commit — but each individual count must be a whole number of
        // batches, which a half-visible transaction would break.
        EXPECT_EQ(events % kRowsPerBatch, 0);
        EXPECT_LE(batches, kBatches);
        observations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the readers spin up before writing — 40 small commits otherwise
  // finish before a single shared-lock acquisition lands.
  while (observations.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int b = 0; b < kBatches; ++b) {
    d.begin();
    for (int i = 0; i < kRowsPerBatch; ++i) {
      d.insert("events", {{"batch", Value{b}},
                          {"state", Value{i % 2 ? "EXECUTE" : "SUBMIT"}},
                          {"dur", Value{1.0 + i}}});
    }
    d.insert("batches", {{"label", Value{"b" + std::to_string(b)}}});
    d.commit();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(d.row_count("events"),
            static_cast<std::size_t>(kBatches) * kRowsPerBatch);
}

// A consistent multi-table observation inside one execute(): the join
// pairs every event with its batch row, so a reader can never count an
// event whose batch row is missing.
TEST(ConcurrentQueries, JoinObservesCommittedBatchesOnly) {
  constexpr int kBatches = 30;
  constexpr int kRowsPerBatch = 10;

  db::Database d;
  d.create_table(events_def());
  d.create_table(batches_def());

  std::atomic<bool> done{false};
  std::thread reader{[&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto rs = d.execute(
          db::Select{"events"}
              .left_join("batches", "batch", "batch_id")
              .columns({"events.id", "batches.batch_id"}));
      for (std::size_t i = 0; i < rs.size(); ++i) {
        // batch ids are 1-based PKs inserted in the same transaction.
        EXPECT_FALSE(rs.at(i, "batches.batch_id").is_null());
      }
    }
  }};

  for (int b = 0; b < kBatches; ++b) {
    d.begin();
    const auto batch_id = d.insert(
        "batches", {{"label", Value{"b" + std::to_string(b)}}});
    for (int i = 0; i < kRowsPerBatch; ++i) {
      d.insert("events", {{"batch", Value{batch_id}},
                          {"state", Value{"SUBMIT"}},
                          {"dur", Value{0.5}}});
    }
    d.commit();
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

TEST(ConcurrentQueries, TransactionOwnerCanReadAndWriteWhileHoldingLock) {
  db::Database d;
  d.create_table(events_def());
  d.begin();
  d.insert("events", {{"batch", Value{1}}, {"state", Value{"SUBMIT"}}});
  // Reads from the owning thread pass through the held exclusive lock.
  EXPECT_EQ(d.scalar(db::Select{"events"}.count_all("n"))->as_int(), 1);
  EXPECT_TRUE(d.in_transaction());
  d.rollback();
  EXPECT_EQ(d.scalar(db::Select{"events"}.count_all("n"))->as_int(), 0);
}

TEST(ConcurrentQueries, CommitFromForeignThreadThrows) {
  db::Database d;
  d.create_table(events_def());
  d.begin();
  std::thread other{[&] {
    // The owner check fires before any lock acquisition, so a foreign
    // thread gets the error instead of blocking on the held lock.
    EXPECT_THROW(d.commit(), DbError);
    EXPECT_THROW(d.rollback(), DbError);
  }};
  other.join();
  EXPECT_TRUE(d.in_transaction());
  d.rollback();
  EXPECT_FALSE(d.in_transaction());
}

// ---------------------------------------------------------------------------
// Version counters & query cache

TEST(QueryCache, VersionsAdvanceOnEveryMutationIncludingRollback) {
  db::Database d;
  d.create_table(events_def());
  const auto v0 = d.table_version("events");
  d.insert("events", {{"batch", Value{1}}, {"state", Value{"SUBMIT"}}});
  const auto v1 = d.table_version("events");
  EXPECT_GT(v1, v0);
  d.begin();
  d.update("events", nullptr, {{"state", Value{"EXECUTE"}}});
  d.rollback();
  // The rollback restored the data but the version must still move:
  // results computed from the intermediate state are stale.
  EXPECT_GT(d.table_version("events"), v1);
}

TEST(QueryCache, RepeatQueryHitsUntilWriteInvalidates) {
  db::Database d;
  d.create_table(events_def());
  for (int i = 0; i < 10; ++i) {
    d.insert("events", {{"batch", Value{i % 3}},
                        {"state", Value{i % 2 ? "EXECUTE" : "SUBMIT"}},
                        {"dur", Value{1.0 * i}}});
  }
  const query::QueryExecutor exec{d};
  const auto select =
      db::Select{"events"}.group_by({"state"}).count_all("n").order_by(
          "state");

  const auto hits0 = counter_value("stampede_query_cache_hits_total");
  const auto miss0 = counter_value("stampede_query_cache_misses_total");
  const auto inv0 = counter_value("stampede_query_cache_invalidations_total");

  const auto first = exec.execute(select);
  EXPECT_EQ(counter_value("stampede_query_cache_misses_total"), miss0 + 1);

  const auto second = exec.execute(select);
  EXPECT_EQ(counter_value("stampede_query_cache_hits_total"), hits0 + 1);
  // A hit hands back the cached ResultSet itself — O(1), no row copied
  // or reallocated (this pointer identity is the pin for that).
  EXPECT_EQ(second.get(), first.get());
  ASSERT_EQ(second->size(), first->size());
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(second->rows[i], first->rows[i]);
  }

  // Any committed write bumps the version and kills the entry.
  d.insert("events", {{"batch", Value{9}}, {"state", Value{"SUBMIT"}}});
  const auto third = exec.execute(select);
  EXPECT_EQ(counter_value("stampede_query_cache_invalidations_total"),
            inv0 + 1);
  EXPECT_EQ(counter_value("stampede_query_cache_misses_total"), miss0 + 2);
  EXPECT_NE(third.get(), second.get());
  EXPECT_EQ(third->at(0, "n").as_int() + third->at(1, "n").as_int(), 11);
}

TEST(QueryCache, CachedShardedResultMatchesUncached) {
  db::ShardedDatabase archive{4};
  archive.create_table(events_def());
  for (std::size_t s = 0; s < archive.shard_count(); ++s) {
    for (int i = 0; i < 5; ++i) {
      archive.shard(s).insert(
          "events", {{"batch", Value{i}},
                     {"state", Value{i % 2 ? "EXECUTE" : "SUBMIT"}},
                     {"dur", Value{1.0 * i}}});
    }
  }
  const query::QueryExecutor exec{archive};
  const auto select = db::Select{"events"}
                          .group_by({"state"})
                          .count_all("n")
                          .agg(db::AggFn::kAvg, "dur", "avg_dur")
                          .order_by("state");
  const auto fresh = exec.execute(select);
  const auto cached = exec.execute(select);
  EXPECT_EQ(cached.get(), fresh.get());
  ASSERT_EQ(cached->size(), fresh->size());
  for (std::size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(cached->rows[i], fresh->rows[i]);
  }
}

// ---------------------------------------------------------------------------
// Planner

TEST(Planner, EqualityProbeUsesBaseIndex) {
  db::Database d;
  d.create_table(events_def());
  for (int i = 0; i < 50; ++i) {
    d.insert("events", {{"batch", Value{i}},
                        {"state", Value{i % 5 ? "EXECUTE" : "FAIL"}},
                        {"dur", Value{1.0 * i}}});
  }
  const auto idx0 = counter_value("stampede_db_plan_base_index_total");
  const auto rs = d.execute(db::Select{"events"}
                                .where(db::eq("state", Value{"FAIL"}))
                                .columns({"id", "state"}));
  EXPECT_EQ(counter_value("stampede_db_plan_base_index_total"), idx0 + 1);
  EXPECT_EQ(rs.size(), 10u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs.at(i, "state").as_text(), "FAIL");
  }
}

TEST(Planner, SmallProbeSideTakesIndexNestedLoopJoin) {
  db::Database d;
  d.create_table(events_def());
  d.create_table(batches_def());
  for (int b = 0; b < 64; ++b) {
    d.insert("batches", {{"label", Value{"L" + std::to_string(b % 2)}}});
  }
  for (int i = 0; i < 20; ++i) {
    d.insert("events", {{"batch", Value{1 + i % 8}},
                        {"state", Value{"EXECUTE"}},
                        {"dur", Value{1.0 * i}}});
  }
  const auto inl0 = counter_value("stampede_db_plan_index_join_total");
  // 8 distinct probe keys are few against 64 batches, and batch_id is
  // the PK-indexed join column -> index-nested-loop.
  const auto rs = d.execute(db::Select{"events"}
                                .join("batches", "batch", "batch_id")
                                .columns({"events.id", "batches.label"}));
  EXPECT_EQ(counter_value("stampede_db_plan_index_join_total"), inl0 + 1);
  EXPECT_EQ(rs.size(), 20u);
}

TEST(Planner, JoinPushdownFiltersBuildSideThroughIndex) {
  db::Database d;
  d.create_table(events_def());
  d.create_table(batches_def());
  for (int b = 0; b < 10; ++b) {
    d.insert("batches", {{"label", Value{b % 2 ? "odd" : "even"}}});
  }
  // 10 distinct probe keys against 10 batches: probing the index per
  // key costs more than one pass, so the hash-join path (where pushdown
  // applies) is taken.
  for (int i = 0; i < 200; ++i) {
    d.insert("events", {{"batch", Value{1 + i % 10}},
                        {"state", Value{"EXECUTE"}},
                        {"dur", Value{1.0 * i}}});
  }
  const auto push0 = counter_value("stampede_db_plan_join_pushdown_total");
  const auto hash0 = counter_value("stampede_db_plan_hash_join_total");
  const auto rs = d.execute(
      db::Select{"events"}
          .join("batches", "batch", "batch_id")
          .where(db::eq("batches.label", Value{"odd"}))
          .columns({"events.id", "batches.label"}));
  EXPECT_EQ(counter_value("stampede_db_plan_hash_join_total"), hash0 + 1);
  EXPECT_EQ(counter_value("stampede_db_plan_join_pushdown_total"), push0 + 1);
  EXPECT_EQ(rs.size(), 100u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs.at(i, "batches.label").as_text(), "odd");
  }
}

TEST(Planner, SemiJoinReducesBaseThroughIndexedJoinColumn) {
  db::Database d;
  d.create_table(batches_def());
  d.create_table(steps_def());
  for (int b = 0; b < 64; ++b) {
    d.insert("batches", {{"label", Value{"L" + std::to_string(b % 8)}}});
  }
  for (int i = 0; i < 640; ++i) {
    d.insert("steps", {{"batch", Value{1 + i % 64}}});
  }
  const auto semi0 = counter_value("stampede_db_plan_semi_join_total");
  const auto scan0 = counter_value("stampede_db_plan_base_scan_total");
  // The base has no conjunct of its own; batches.label is indexed and
  // steps.batch is too, so the base starts from the 80 steps of the 8
  // "L3" batches instead of all 640.
  const auto rs = d.execute(db::Select{"steps"}
                                .join("batches", "batch", "batch_id")
                                .where(db::eq("batches.label", Value{"L3"}))
                                .columns({"steps.step_id", "batches.label"}));
  EXPECT_EQ(counter_value("stampede_db_plan_semi_join_total"), semi0 + 1);
  EXPECT_EQ(counter_value("stampede_db_plan_base_scan_total"), scan0);
  EXPECT_EQ(db::last_plan_info().semi_joins, 1u);
  ASSERT_EQ(rs.size(), 80u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs.at(i, "batches.label").as_text(), "L3");
  }
}

TEST(Planner, LeftOuterChainIsNotReduced) {
  db::Database d;
  d.create_table(batches_def());
  d.create_table(steps_def());
  for (int b = 0; b < 64; ++b) {
    d.insert("batches", {{"label", Value{"L" + std::to_string(b % 8)}}});
  }
  for (int i = 0; i < 640; ++i) {
    d.insert("steps", {{"batch", Value{1 + i % 64}}});
  }
  const auto semi0 = counter_value("stampede_db_plan_semi_join_total");
  const auto scan0 = counter_value("stampede_db_plan_base_scan_total");
  // The same shape as a LEFT OUTER join: a base row keeps its place
  // without a partner, so the planner does not reduce through it.
  const auto rs = d.execute(db::Select{"steps"}
                                .left_join("batches", "batch", "batch_id")
                                .where(db::eq("batches.label", Value{"L3"}))
                                .columns({"steps.step_id", "batches.label"}));
  EXPECT_EQ(counter_value("stampede_db_plan_semi_join_total"), semi0);
  EXPECT_EQ(counter_value("stampede_db_plan_base_scan_total"), scan0 + 1);
  EXPECT_EQ(rs.size(), 80u);
}

TEST(Planner, PlansAgreeWithEachOtherRowForRow) {
  // The same join + filter query on an archive and on a copy padded with
  // rows the filter excludes must return identical rows. (Both now take
  // the hash join with pushdown; tests/test_planner.cpp compares plans
  // that differ.)
  db::Database small;
  db::Database large;
  for (db::Database* d : {&small, &large}) {
    d->create_table(events_def());
    d->create_table(batches_def());
    for (int b = 0; b < 6; ++b) {
      d->insert("batches", {{"label", Value{"L" + std::to_string(b % 3)}}});
    }
  }
  for (int i = 0; i < 30; ++i) {
    small.insert("events", {{"batch", Value{1 + i % 6}},
                            {"state", Value{i % 4 ? "EXECUTE" : "FAIL"}},
                            {"dur", Value{1.0 * (i % 7)}}});
  }
  for (int i = 0; i < 30; ++i) {
    large.insert("events", {{"batch", Value{1 + i % 6}},
                            {"state", Value{i % 4 ? "EXECUTE" : "FAIL"}},
                            {"dur", Value{1.0 * (i % 7)}}});
  }
  // Pad `large` with rows the filter excludes, so both archives must
  // produce the same matching set.
  for (int i = 0; i < 100; ++i) {
    large.insert("events", {{"batch", Value{1}},  // label L0: filtered out
                            {"state", Value{"PAD"}},
                            {"dur", Value{0.0}}});
  }
  const auto select = db::Select{"events"}
                          .join("batches", "batch", "batch_id")
                          .where(db::and_(db::eq("batches.label", Value{"L1"}),
                                          db::ne("state", Value{"PAD"})))
                          .columns({"events.id", "batches.label", "dur"})
                          .order_by("events.id");
  const auto a = small.execute(select);
  const auto b = large.execute(select);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]);
  }
}

// ---------------------------------------------------------------------------
// ORDER BY + LIMIT top-k and group-key semantics

TEST(TopK, BoundedSortMatchesFullSortThenTruncate) {
  db::Database d;
  d.create_table(events_def());
  for (int i = 0; i < 500; ++i) {
    d.insert("events", {{"batch", Value{i}},
                        {"state", Value{"S" + std::to_string(i % 13)}},
                        {"dur", Value{1.0 * ((i * 37) % 97)}}});
  }
  const auto base = db::Select{"events"}
                        .columns({"id", "dur", "state"})
                        .order_by("dur", /*descending=*/true);
  auto limited = base;
  limited.limit(10);
  const auto full = d.execute(base);
  const auto topk = d.execute(limited);
  ASSERT_EQ(topk.size(), 10u);
  for (std::size_t i = 0; i < topk.size(); ++i) {
    // Byte-identical to stable_sort-then-truncate, ties included (many
    // dur values repeat).
    EXPECT_EQ(topk.rows[i], full.rows[i]);
  }
}

TEST(GroupKeys, IntAndRealGroupSeparatelyNaNAndZeroSignHandled) {
  db::TableDef t;
  t.name = "vals";
  t.columns = {{"v", db::ColumnType::kReal, false, std::nullopt}};
  db::Database d;
  d.create_table(t);
  d.insert("vals", {{"v", Value{1}}});         // int 1
  d.insert("vals", {{"v", Value{1.0}}});       // real 1.0 — distinct key
  d.insert("vals", {{"v", Value{0.0}}});
  d.insert("vals", {{"v", Value{-0.0}}});      // distinct from +0.0
  const double nan = std::nan("");
  d.insert("vals", {{"v", Value{nan}}});
  d.insert("vals", {{"v", Value{nan}}});       // NaN groups with NaN
  d.insert("vals", {{"v", Value::null()}});
  d.insert("vals", {{"v", Value::null()}});    // NULL groups with NULL

  const auto rs =
      d.execute(db::Select{"vals"}.group_by({"v"}).count_all("n"));
  // int 1, real 1.0, +0.0, -0.0, NaN, NULL -> six groups.
  EXPECT_EQ(rs.size(), 6u);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    total += rs.at(i, "n").as_int();
  }
  EXPECT_EQ(total, 8);

  const auto distinct =
      d.execute(db::Select{"vals"}.columns({"v"}).distinct());
  EXPECT_EQ(distinct.size(), 6u);
}

TEST(GroupKeys, RealsOutsideInt64RangeHashAndGroup) {
  // Reals the int64 cast cannot represent (NaN, ±inf, ±1e300) hash as
  // doubles; build with -fsanitize=float-cast-overflow to see the cast
  // stay in range. Integral reals inside it still hash like ints.
  const std::hash<Value> hash;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double d : {std::nan(""), inf, -inf, 1e300, -1e300, 0x1p63}) {
    EXPECT_EQ(hash(Value{d}), std::hash<double>{}(d)) << d;
  }
  EXPECT_EQ(hash(Value{1.0}), hash(Value{1}));
  EXPECT_EQ(hash(Value{-0x1p63}),
            hash(Value{std::numeric_limits<std::int64_t>::min()}));

  db::TableDef t;
  t.name = "vals";
  t.columns = {{"v", db::ColumnType::kReal, false, std::nullopt}};
  db::Database d;
  d.create_table(t);
  for (const double v : {inf, -inf, 1e300, -1e300, inf, 1e300}) {
    d.insert("vals", {{"v", Value{v}}});
  }
  const auto rs =
      d.execute(db::Select{"vals"}.group_by({"v"}).count_all("n"));
  EXPECT_EQ(rs.size(), 4u);
}
