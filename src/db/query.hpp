#pragma once
// SELECT builder and result set.
//
// Covers the query shapes the Stampede tools need (paper §VII): filtered
// scans, equality joins across the entity tables (planned as index or
// hash joins, DESIGN.md §10), GROUP BY with COUNT/SUM/MIN/MAX/AVG
// aggregates, ORDER BY and LIMIT.

#include <optional>
#include <string>
#include <vector>

#include "db/expr.hpp"
#include "db/schema.hpp"

namespace stampede::db {

enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;  ///< Empty means COUNT(*).
  std::string alias;
};

struct JoinSpec {
  std::string table;
  std::string alias;      ///< Defaults to the table name.
  std::string left_col;   ///< Column on the rows built so far (qualified ok).
  std::string right_col;  ///< Column on the joined table.
  bool left_outer = false;
};

struct OrderSpec {
  std::string column;
  bool descending = false;
};

/// Fluent SELECT description. All strings refer to columns either
/// unqualified ("dur" — must be unambiguous) or qualified with the table
/// alias ("invocation.dur").
class Select {
 public:
  explicit Select(std::string table, std::string alias = "");

  Select& columns(std::vector<std::string> cols);
  Select& join(std::string table, std::string left_col, std::string right_col,
               std::string alias = "");
  Select& left_join(std::string table, std::string left_col,
                    std::string right_col, std::string alias = "");
  Select& where(ExprPtr predicate);
  Select& group_by(std::vector<std::string> cols);
  Select& agg(AggFn fn, std::string column, std::string alias);
  Select& count_all(std::string alias);
  Select& order_by(std::string column, bool descending = false);
  Select& limit(std::size_t n);
  Select& distinct();

  // Accessors used by the executor.
  [[nodiscard]] const std::string& table() const noexcept { return table_; }
  [[nodiscard]] const std::string& alias() const noexcept { return alias_; }
  [[nodiscard]] const std::vector<std::string>& selected() const noexcept {
    return columns_;
  }
  [[nodiscard]] const std::vector<JoinSpec>& joins() const noexcept {
    return joins_;
  }
  [[nodiscard]] const ExprPtr& predicate() const noexcept { return where_; }
  [[nodiscard]] const std::vector<std::string>& groups() const noexcept {
    return group_by_;
  }
  [[nodiscard]] const std::vector<AggSpec>& aggs() const noexcept {
    return aggs_;
  }
  [[nodiscard]] const std::vector<OrderSpec>& orders() const noexcept {
    return order_by_;
  }
  [[nodiscard]] std::optional<std::size_t> row_limit() const noexcept {
    return limit_;
  }
  [[nodiscard]] bool is_distinct() const noexcept { return distinct_; }

 private:
  std::string table_;
  std::string alias_;
  std::vector<std::string> columns_;
  std::vector<JoinSpec> joins_;
  ExprPtr where_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
  std::vector<OrderSpec> order_by_;
  std::optional<std::size_t> limit_;
  bool distinct_ = false;
};

// -- row-key semantics for GROUP BY / DISTINCT ------------------------------
//
// Group and DISTINCT keys are type-tagged: int 1 and real 1.0 are
// *different* keys (unlike Value::operator==, which compares
// numerically) — the semantics the engine has always had via its
// serialized string keys, now expressed directly over hashed Values so
// the hot paths stop allocating a string per row.

/// Type-tagged equality of two key values. NULL equals NULL; NaN equals
/// NaN; +0.0 and -0.0 stay distinct (they render differently).
[[nodiscard]] bool group_values_equal(const Value& a, const Value& b) noexcept;

/// Equality of the first `prefix` values of two rows under
/// group_values_equal.
[[nodiscard]] bool group_rows_equal(const Row& a, const Row& b,
                                    std::size_t prefix) noexcept;

/// Order-sensitive combination of std::hash<Value> over the first
/// `prefix` values. Consistent with group_rows_equal (equal rows hash
/// equal; std::hash<Value> already hashes int 1 and real 1.0 alike,
/// which is merely a benign collision here).
[[nodiscard]] std::size_t group_rows_hash(const Row& row,
                                          std::size_t prefix) noexcept;

/// Materialized query result.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  [[nodiscard]] std::optional<std::size_t> column_index(
      std::string_view name) const noexcept {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return i;
    }
    return std::nullopt;
  }

  /// Cell access by column name; throws common::DbError on unknown
  /// column or out-of-range row.
  [[nodiscard]] const Value& at(std::size_t row, std::string_view column) const;

  [[nodiscard]] bool empty() const noexcept { return rows.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return rows.size(); }
};

/// Applies the ORDER BY / LIMIT tail to a materialized result: a bounded
/// top-k (partial sort over row indexes, original index as the final
/// tie-break) when a limit smaller than the row count is present, a full
/// stable sort otherwise. The index tie-break makes the top-k output
/// byte-identical to stable_sort-then-truncate. Throws common::DbError
/// when an order column is not in the result set.
void sort_and_limit(ResultSet& result, const std::vector<OrderSpec>& orders,
                    std::optional<std::size_t> limit);

}  // namespace stampede::db
