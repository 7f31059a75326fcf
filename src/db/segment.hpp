#pragma once
// Columnar segments over sealed row-store ranges (DESIGN.md §15).
//
// A Segment is an immutable column-oriented copy of the live rows in one
// slot range [lo, hi) of a Table: per-column typed arrays (int64 /
// float64), sorted-dictionary (+ optional RLE) encoding for text,
// per-column min/max zone maps, and sorted-position range indexes for
// timestamp-style predicates. Segments are an *acceleration structure*,
// never the source of truth: the row store keeps every row, a mutation
// that touches a covered slot simply invalidates the covering segment
// (the compactor re-seals the range later), and the vectorized executor
// unions segments with the uncovered row-store gaps/tail in ascending
// RowId order — which is what makes its results byte-identical to the
// pure row path.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/query.hpp"
#include "db/schema.hpp"

namespace stampede::db {

class Table;
struct PlanInfo;

/// One column of a segment; positions align with Segment::row_ids.
struct SegmentColumn {
  /// Picked from the *observed* cell types, not the declared column type
  /// — inserts are not type-checked, so a REAL column may hold int
  /// Values and group keys distinguish int 1 from real 1.0. kInt64 /
  /// kFloat64 / kDict require every non-null cell to be of that one
  /// type; anything else (or an all-NULL column) falls back to kMixed.
  enum class Encoding { kInt64, kFloat64, kDict, kMixed };

  Encoding encoding = Encoding::kMixed;

  std::vector<std::int64_t> ints;    ///< kInt64 payload (0 at NULLs).
  std::vector<double> reals;         ///< kFloat64 payload (0.0 at NULLs).
  std::vector<std::string> dict;     ///< kDict: distinct values, sorted.
  std::vector<std::uint32_t> codes;  ///< kDict plain codes (empty if RLE).
  std::vector<std::uint32_t> run_starts;  ///< kDict RLE: run first position.
  std::vector<std::uint32_t> run_codes;   ///< kDict RLE: run dict code.
  std::vector<Value> values;         ///< kMixed payload.
  std::vector<std::uint8_t> nulls;   ///< 1 = NULL (empty when none).

  bool has_nulls = false;
  bool has_values = false;  ///< Any non-null cell.
  /// True when a real cell is NaN. NaN is unordered under Value::compare
  /// so it can neither serve as a zone-map bound nor sit in a sorted
  /// range index; the flag disables both for the column.
  bool has_nan = false;
  Value min_value;  ///< Zone map over non-null, non-NaN cells.
  Value max_value;

  [[nodiscard]] bool is_null_at(std::size_t pos) const noexcept {
    return has_nulls && nulls[pos] != 0;
  }

  /// Dictionary code at `pos` (kDict only), RLE-aware.
  [[nodiscard]] std::uint32_t code_at(std::size_t pos) const;

  /// Exact cell reconstruction: the returned Value is identical (type
  /// tag included) to the row-store cell the segment was built from.
  [[nodiscard]] Value value_at(std::size_t pos) const;
};

/// Immutable columnar image of the live rows in slot range [lo, hi).
struct Segment {
  RowId lo = 0;  ///< First covered row-store slot.
  RowId hi = 0;  ///< One past the last covered slot.
  std::vector<RowId> row_ids;          ///< Live rows, ascending.
  std::vector<SegmentColumn> columns;  ///< Aligned with TableDef::columns.
  /// column index -> positions sorted by (value, position) under
  /// Value::compare, NULL and NaN positions excluded. Serves <, <=, >,
  /// >=, = predicates via binary search — the range probes the
  /// equality-only secondary indexes cannot answer.
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> range_index;

  [[nodiscard]] std::size_t size() const noexcept { return row_ids.size(); }
};

/// Sealing policy knobs (Table::seal / StorageShard::compact).
struct SealOptions {
  /// A trailing uncovered range seals only once it holds at least this
  /// many slots beyond the hot tail; interior gaps (left behind by a
  /// segment invalidation) re-seal regardless of size.
  std::size_t min_seal_rows = 1024;
  /// Newest slots that always stay in row form — the write-hot tail.
  std::size_t hot_tail_rows = 256;
  /// Large ranges are chopped into segments of ~this many slots.
  std::size_t target_segment_rows = 4096;
};

struct SealStats {
  std::size_t segments_built = 0;
  std::size_t rows_sealed = 0;            ///< Live rows across new segments.
  std::size_t tombstones_reclaimed = 0;   ///< Dead-row payloads freed.
};

/// The set of segments covering one table, ordered by slot range.
/// Mutated only under the owning shard's exclusive lock; read under its
/// shared lock (same discipline as the row store itself).
class ColumnStore {
 public:
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }

  /// One past the highest covered slot (0 when empty): mutations at or
  /// beyond it — every insert — can never hit a segment.
  [[nodiscard]] RowId covered_hi() const noexcept { return covered_hi_; }

  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_;
  }
  [[nodiscard]] std::size_t sealed_rows() const noexcept;

  /// Inserts a segment at its slot-sorted position. Ranges must not
  /// overlap existing segments (the sealer only covers gaps).
  void add(Segment segment);

  /// Drops the segment covering `id`, if any (update / delete / rollback
  /// of a covered row). The range returns to row-store scanning until
  /// the compactor re-seals it.
  void invalidate(RowId id);

  void clear();

 private:
  std::vector<Segment> segments_;  ///< Sorted by lo; pairwise disjoint.
  RowId covered_hi_ = 0;
  std::uint64_t invalidations_ = 0;
};

/// Builds the columnar image of slots [lo, hi): encodings chosen per
/// column from observed content, zone maps, and range indexes for
/// `range_index_cols` (indices into def.columns).
[[nodiscard]] Segment build_segment(const TableDef& def,
                                    const std::vector<Row>& rows,
                                    const std::vector<bool>& live, RowId lo,
                                    RowId hi,
                                    const std::vector<std::size_t>& range_index_cols);

/// Vectorized single-table scan over the table's segments plus its
/// uncovered row ranges: zone-map segment pruning, predicate evaluation
/// over column batches, range-index probes, GROUP BY aggregation through
/// db::Aggregator in ascending-RowId order, and late materialization of
/// only the surviving rows. Returns nullopt when the query shape is not
/// supported (joins, column-to-column predicates, names that don't
/// resolve against the base table) — the caller falls back to the row
/// path, which also keeps error behaviour identical. A non-nullopt
/// result is byte-identical to StorageShard's row-path execution.
[[nodiscard]] std::optional<ResultSet> execute_columnar(const Table& table,
                                                        const Select& select,
                                                        PlanInfo& plan);

}  // namespace stampede::db
