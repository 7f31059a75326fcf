// Randomized plan equivalence (DESIGN.md §10): the planner may start a
// join chain from an index probe, a semi-join reduction or a scan, and
// join by index-nested-loop or by hash, but every plan must return the
// same rows in the same order. Each round builds the same random 2–3
// table chain twice — once with secondary indexes and a primary key,
// once with neither, so that side can only scan and hash — mutates both
// alike, runs one random query on both and compares the results cell by
// cell with type-tagged equality (int 1 and real 1.0 must not blur).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "db/database.hpp"

namespace db = stampede::db;
using db::Value;
using stampede::common::Rng;

namespace {

constexpr int kRounds = 240;
const char* const kKeyColumns[] = {"k1", "k2", "v"};

/// A join key: duplicates from a small domain, NULLs, and reals that
/// equal ints (2.0) or fall between them (2.5).
Value random_key(Rng& rng, std::int64_t domain) {
  if (rng.chance(0.1)) return Value::null();
  const std::int64_t n = rng.uniform_int(0, domain - 1);
  if (rng.chance(0.2)) return Value{static_cast<double>(n)};
  if (rng.chance(0.1)) return Value{static_cast<double>(n) + 0.5};
  return Value{n};
}

db::TableDef table_def(const std::string& name, bool indexed, Rng& rng) {
  db::TableDef t;
  t.name = name;
  t.columns = {{"id", db::ColumnType::kInteger, false, std::nullopt},
               {"k1", db::ColumnType::kReal, false, std::nullopt},
               {"k2", db::ColumnType::kReal, false, std::nullopt},
               {"v", db::ColumnType::kReal, false, std::nullopt}};
  if (indexed) {
    t.primary_key = "id";
    for (const char* col : kKeyColumns) {
      if (rng.chance(0.6)) {
        t.indexes.push_back({"ix_" + name + "_" + col, {col}, false});
      }
    }
  }
  return t;
}

std::string random_column(Rng& rng, int tables) {
  static const char* const kColumns[] = {"id", "k1", "k2", "v"};
  return "t" + std::to_string(rng.uniform_int(0, tables - 1)) + "." +
         kColumns[rng.uniform_int(0, 3)];
}

db::ExprPtr random_conjunct(Rng& rng, int tables, std::int64_t domain) {
  const std::string col = random_column(rng, tables);
  switch (rng.uniform_int(0, 4)) {
    case 0:
    case 1:
      return db::eq(col, random_key(rng, domain));
    case 2: {
      std::vector<Value> values;
      for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
        values.push_back(random_key(rng, domain));
      }
      return db::in_list(col, std::move(values));
    }
    case 3:
      return db::gt(col, Value{rng.uniform_int(0, domain - 1)});
    default:
      return db::or_(db::eq(col, random_key(rng, domain)),
                     db::is_null(random_column(rng, tables)));
  }
}

bool same_result(const db::ResultSet& a, const db::ResultSet& b,
                 std::string& why) {
  if (a.columns != b.columns) {
    why = "columns differ";
    return false;
  }
  if (a.rows.size() != b.rows.size()) {
    why = "row counts " + std::to_string(a.rows.size()) + " vs " +
          std::to_string(b.rows.size());
    return false;
  }
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size() ||
        !db::group_rows_equal(a.rows[r], b.rows[r], a.rows[r].size())) {
      why = "row " + std::to_string(r) + " differs";
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(PlanEquivalence, IndexedAndScanOnlyArchivesAgreeRowForRow) {
  Rng rng{20121110};
  db::PlanInfo seen;  // Summed over the indexed side's queries.
  for (int round = 0; round < kRounds; ++round) {
    const int tables = static_cast<int>(rng.uniform_int(2, 3));
    const std::int64_t domain = rng.uniform_int(3, 12);
    db::Database indexed;
    db::Database scan_only;
    for (int t = 0; t < tables; ++t) {
      const std::string name = "t" + std::to_string(t);
      indexed.create_table(table_def(name, true, rng));
      scan_only.create_table(table_def(name, false, rng));
      const std::int64_t rows = rng.uniform_int(0, 120);
      for (std::int64_t id = 1; id <= rows; ++id) {
        const db::NamedValues values = {{"id", Value{id}},
                                        {"k1", random_key(rng, domain)},
                                        {"k2", random_key(rng, domain)},
                                        {"v", random_key(rng, domain)}};
        indexed.insert(name, values);
        scan_only.insert(name, values);
      }
      // Updates move index entries (only for changed columns), deletes
      // leave tombstones; both archives get the same ones.
      for (std::int64_t i = rows / 4; i > 0; --i) {
        const auto target = db::eq("id", Value{rng.uniform_int(1, rows)});
        if (rng.chance(0.3)) {
          indexed.delete_rows(name, target);
          scan_only.delete_rows(name, target);
        } else {
          const db::NamedValues sets = {
              {kKeyColumns[rng.uniform_int(0, 2)], random_key(rng, domain)}};
          indexed.update(name, target, sets);
          scan_only.update(name, target, sets);
        }
      }
    }

    db::Select select{"t0"};
    for (int t = 1; t < tables; ++t) {
      // The left key may come from any source joined so far.
      const std::string left = random_column(rng, t);
      const std::string right = rng.chance(0.25)
                                    ? std::string{"id"}
                                    : kKeyColumns[rng.uniform_int(0, 2)];
      const std::string name = "t" + std::to_string(t);
      if (rng.chance(0.3)) {
        select.left_join(name, left, right);
      } else {
        select.join(name, left, right);
      }
    }
    std::vector<db::ExprPtr> conjuncts;
    for (std::int64_t i = rng.uniform_int(1, 3); i > 0; --i) {
      conjuncts.push_back(random_conjunct(rng, tables, domain));
    }
    select.where(conjuncts.size() == 1 ? conjuncts.front()
                                       : db::and_(std::move(conjuncts)));
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        std::vector<std::string> cols;
        for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i) {
          cols.push_back(random_column(rng, tables));
        }
        select.columns(std::move(cols));
        if (rng.chance(0.2)) select.distinct();
        break;
      }
      case 1:
        select.group_by({random_column(rng, tables)})
            .count_all("n")
            .agg(db::AggFn::kSum, random_column(rng, tables), "total");
        break;
      default:
        break;  // SELECT *
    }

    const db::ResultSet expected = scan_only.execute(select);
    const db::ResultSet actual = indexed.execute(select);
    const db::PlanInfo& plan = db::last_plan_info();
    seen.base_index += plan.base_index;
    seen.semi_joins += plan.semi_joins;
    seen.index_joins += plan.index_joins;
    seen.hash_joins += plan.hash_joins;
    std::string why;
    ASSERT_TRUE(same_result(expected, actual, why))
        << "round " << round << ": " << why;
  }
  // The rounds must reach every plan the indexed side can choose.
  EXPECT_GT(seen.base_index, 0u);
  EXPECT_GT(seen.semi_joins, 0u);
  EXPECT_GT(seen.index_joins, 0u);
  EXPECT_GT(seen.hash_joins, 0u);
}
