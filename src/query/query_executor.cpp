#include "query/query_executor.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/errors.hpp"
#include "query/partial_merge.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::query {
namespace {

using common::DbError;
using db::AggFn;
using db::AggSpec;
using db::Expr;
using db::ResultSet;
using db::Row;
using db::Select;
using db::Value;

// -- structural fingerprint --------------------------------------------------
//
// Collision-free serialization of a Select for the cache key
// (length-prefixed fields, so no escaping is needed).

void fp_string(std::string& out, const std::string& text) {
  out += std::to_string(text.size());
  out += ':';
  out += text;
}

void fp_value(std::string& out, const Value& value) {
  std::string text;
  if (value.is_null()) {
    out += "N;";
    return;
  }
  if (value.is_int()) {
    text = "I" + std::to_string(value.as_int());
  } else if (value.is_real()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "R%.17g", value.as_real());
    text = buf;
  } else {
    text = "S" + value.as_text();
  }
  fp_string(out, text);
}

void fp_expr(std::string& out, const Expr& expr) {
  out += 'E';
  out += std::to_string(static_cast<int>(expr.kind));
  out += ',';
  out += std::to_string(static_cast<int>(expr.op));
  fp_string(out, expr.column);
  fp_string(out, expr.column_rhs);
  fp_value(out, expr.literal);
  fp_string(out, expr.pattern);
  out += '[';
  for (const auto& value : expr.in_values) fp_value(out, value);
  out += "](";
  for (const auto& child : expr.children) {
    if (child) fp_expr(out, *child);
  }
  out += ')';
}

std::string fingerprint(const Select& select) {
  std::string out = "v1|";
  fp_string(out, select.table());
  fp_string(out, select.alias());
  out += 'C';
  for (const auto& name : select.selected()) fp_string(out, name);
  out += 'J';
  for (const auto& join : select.joins()) {
    fp_string(out, join.table);
    fp_string(out, join.alias);
    fp_string(out, join.left_col);
    fp_string(out, join.right_col);
    out += join.left_outer ? '1' : '0';
  }
  out += 'W';
  if (select.predicate()) fp_expr(out, *select.predicate());
  out += 'G';
  for (const auto& name : select.groups()) fp_string(out, name);
  out += 'A';
  for (const auto& spec : select.aggs()) {
    out += std::to_string(static_cast<int>(spec.fn));
    fp_string(out, spec.column);
    fp_string(out, spec.alias);
  }
  out += 'O';
  for (const auto& order : select.orders()) {
    fp_string(out, order.column);
    out += order.descending ? '1' : '0';
  }
  out += 'L';
  out += select.row_limit() ? std::to_string(*select.row_limit()) : "-";
  out += select.is_distinct() ? "D1" : "D0";
  return out;
}

// -- hashed merge / dedup keys ----------------------------------------------
//
// Group-merge and DISTINCT keys hash the first `prefix` values of a row
// under the engine's type-tagged key semantics (db::group_rows_hash /
// group_rows_equal) instead of serializing a string per row.

struct PrefixRowHash {
  std::size_t prefix = 0;
  std::size_t operator()(const Row* row) const noexcept {
    return db::group_rows_hash(*row, prefix);
  }
};

struct PrefixRowEq {
  std::size_t prefix = 0;
  bool operator()(const Row* a, const Row* b) const noexcept {
    return db::group_rows_equal(*a, *b, prefix);
  }
};

// Separator between an AVG alias and its partial-column suffix; cannot
// collide with user aliases (control character).
constexpr char kPartialSep = '\x1f';

/// Rebuilds `select` as the per-shard partial query: same sources,
/// predicate and grouping, but AVG aggregates split into SUM+COUNT
/// partials and the global DISTINCT / ORDER BY / LIMIT stripped (a
/// top-k prune is kept when it is safe — see gather()).
Select build_partial(const Select& select) {
  Select partial{select.table(), select.alias()};
  partial.columns(select.selected());
  for (const auto& join : select.joins()) {
    if (join.left_outer) {
      partial.left_join(join.table, join.left_col, join.right_col, join.alias);
    } else {
      partial.join(join.table, join.left_col, join.right_col, join.alias);
    }
  }
  if (select.predicate()) partial.where(select.predicate());
  partial.group_by(select.groups());
  for (const auto& spec : select.aggs()) {
    if (spec.fn == AggFn::kAvg) {
      partial.agg(AggFn::kSum, spec.column, spec.alias + kPartialSep + 's');
      partial.agg(AggFn::kCount, spec.column, spec.alias + kPartialSep + 'c');
    } else {
      partial.agg(spec.fn, spec.column, spec.alias);
    }
  }
  const bool aggregated = !select.groups().empty() || !select.aggs().empty();
  if (!aggregated) {
    if (select.is_distinct()) partial.distinct();
    // Safe top-k prune: each shard's top `limit` rows (under the global
    // order) are a superset of its contribution to the global top-k.
    // DISTINCT breaks that (a per-shard cut can starve the global set
    // after dedup), so only prune without it.
    if (select.row_limit() && !select.is_distinct()) {
      for (const auto& order : select.orders()) {
        partial.order_by(order.column, order.descending);
      }
      partial.limit(*select.row_limit());
    }
  }
  return partial;
}

// MergeAgg moved to query/partial_merge.hpp so the continuous-view
// engine merges per-shard partials through the identical arithmetic.
using detail::MergeAgg;

ResultSet merge_aggregates(const Select& select,
                           const std::vector<ResultSet>& parts) {
  const std::size_t n_groups = select.groups().size();

  struct GroupState {
    Row key;
    std::vector<MergeAgg> aggs;
  };
  // Keyed on pointers into the (immutable, stable) partial rows.
  std::unordered_map<const Row*, std::size_t, PrefixRowHash, PrefixRowEq>
      index_of{0, PrefixRowHash{n_groups}, PrefixRowEq{n_groups}};
  std::vector<GroupState> groups;

  for (const auto& part : parts) {
    for (const auto& row : part.rows) {
      auto [it, inserted] = index_of.emplace(&row, groups.size());
      if (inserted) {
        GroupState state;
        state.key.assign(row.begin(),
                         row.begin() + static_cast<std::ptrdiff_t>(n_groups));
        state.aggs.reserve(select.aggs().size());
        for (const auto& spec : select.aggs()) {
          MergeAgg agg;
          agg.fn = spec.fn;
          state.aggs.push_back(agg);
        }
        groups.push_back(std::move(state));
      }
      GroupState& state = groups[it->second];
      // Partial rows lay out as: group values, then one column per
      // non-AVG aggregate and two (sum, count) per AVG, in spec order.
      std::size_t col = n_groups;
      for (std::size_t a = 0; a < select.aggs().size(); ++a) {
        MergeAgg& agg = state.aggs[a];
        switch (agg.fn) {
          case AggFn::kCount:
            agg.feed_count(row[col++]);
            break;
          case AggFn::kSum:
            agg.feed_sum(row[col++]);
            break;
          case AggFn::kAvg:
            agg.feed_sum(row[col++]);
            agg.avg_count += row[col++].as_int();
            break;
          case AggFn::kMin:
            agg.feed_minmax(row[col++], /*want_min=*/true);
            break;
          case AggFn::kMax:
            agg.feed_minmax(row[col++], /*want_min=*/false);
            break;
        }
      }
    }
  }

  // Aggregates with no groups emit one row even from zero input — each
  // shard already did, so `groups` is non-empty in that case; this is
  // just belt and braces for defensive symmetry with the engine.
  if (groups.empty() && n_groups == 0 && !select.aggs().empty()) {
    GroupState state;
    for (const auto& spec : select.aggs()) {
      MergeAgg agg;
      agg.fn = spec.fn;
      state.aggs.push_back(agg);
    }
    groups.push_back(std::move(state));
  }

  ResultSet result;
  for (const auto& g : select.groups()) result.columns.push_back(g);
  for (const auto& spec : select.aggs()) result.columns.push_back(spec.alias);
  result.rows.reserve(groups.size());
  for (auto& state : groups) {
    Row out = std::move(state.key);
    out.reserve(out.size() + state.aggs.size());
    for (const auto& agg : state.aggs) out.push_back(agg.result());
    result.rows.push_back(std::move(out));
  }
  return result;
}

/// Re-applies the global DISTINCT / ORDER BY / LIMIT tail on the merged
/// rows, mirroring the single-shard engine's steps 5-7.
void apply_tail(const Select& select, ResultSet& result) {
  if (select.is_distinct()) {
    const std::size_t width = result.columns.size();
    // Pointers stay valid: `unique` is reserved to the input size and
    // never reallocates.
    std::unordered_set<const Row*, PrefixRowHash, PrefixRowEq> seen{
        0, PrefixRowHash{width}, PrefixRowEq{width}};
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
  db::sort_and_limit(result, select.orders(), select.row_limit());
}

telemetry::Counter& scatter_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_scatter_total");
  return counter;
}

telemetry::Counter& single_shard_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_single_shard_total");
  return counter;
}

telemetry::Counter& cache_hit_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_cache_hits_total");
  return counter;
}

telemetry::Counter& cache_miss_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_cache_misses_total");
  return counter;
}

telemetry::Counter& cache_invalidation_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_cache_invalidations_total");
  return counter;
}

telemetry::Counter& slow_query_counter() {
  static telemetry::Counter& counter =
      telemetry::registry().counter("stampede_query_slow_total");
  return counter;
}

/// Seconds, as an atomic bit pattern (atomic<double> lacks lock-free
/// guarantees on some targets; u64 bit_cast is always fine).
std::atomic<std::uint64_t> g_slow_threshold_bits{
    std::bit_cast<std::uint64_t>(0.25)};

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void set_slow_query_threshold(double seconds) {
  g_slow_threshold_bits.store(std::bit_cast<std::uint64_t>(seconds),
                              std::memory_order_relaxed);
}

double slow_query_threshold() noexcept {
  return std::bit_cast<double>(
      g_slow_threshold_bits.load(std::memory_order_relaxed));
}

/// Version-keyed memo of fleet-wide results. An entry is valid while
/// every referenced table's modification counter (on every shard) still
/// matches the stamp recorded at store time; any committed write bumps a
/// counter and the next lookup discards the entry (counted as an
/// invalidation). Thread-safe; results are held behind shared_ptr so the
/// lock is never held while a caller copies a large ResultSet.
class QueryCache {
 public:
  /// Cached result for (key, versions), or nullptr on miss. Bumps the
  /// hit / miss / invalidation counters.
  std::shared_ptr<const ResultSet> lookup(
      const std::string& key, const std::vector<std::uint64_t>& versions) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (it->second.versions == versions) {
          cache_hit_counter().inc();
          return it->second.result;
        }
        entries_.erase(it);
        cache_invalidation_counter().inc();
      }
    }
    cache_miss_counter().inc();
    return nullptr;
  }

  void store(std::string key, std::vector<std::uint64_t> versions,
             std::shared_ptr<const ResultSet> shared) {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (entries_.size() >= kMaxEntries &&
        entries_.find(key) == entries_.end()) {
      // Bounded memory beats retention: the workload this serves
      // (dashboards re-issuing a small query set) never gets near the
      // cap, so wholesale reset is simpler than LRU bookkeeping.
      entries_.clear();
    }
    entries_[std::move(key)] = Entry{std::move(versions), std::move(shared)};
  }

 private:
  static constexpr std::size_t kMaxEntries = 256;

  struct Entry {
    std::vector<std::uint64_t> versions;
    std::shared_ptr<const ResultSet> result;
  };

  std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
};

QueryExecutor::QueryExecutor(const db::Database& database)
    : single_(&database), cache_(std::make_shared<QueryCache>()) {}

QueryExecutor::QueryExecutor(const db::ShardedDatabase& sharded)
    : sharded_(&sharded), cache_(std::make_shared<QueryCache>()) {}

QueryExecutor::QueryExecutor(const ShardBackend& backend)
    : backend_(&backend), cache_(std::make_shared<QueryCache>()) {}

QueryExecutor::QueryExecutor(const QueryExecutor&) = default;
QueryExecutor& QueryExecutor::operator=(const QueryExecutor&) = default;
QueryExecutor::~QueryExecutor() = default;

std::vector<std::uint64_t> QueryExecutor::collect_versions(
    const Select& select) const {
  std::vector<std::string> tables;
  tables.reserve(1 + select.joins().size());
  tables.push_back(select.table());
  for (const auto& join : select.joins()) tables.push_back(join.table);
  if (single_) return single_->table_versions(tables);
  if (backend_ != nullptr) return backend_->table_versions(tables);
  return sharded_->table_versions(tables);
}

ResultSet QueryExecutor::run_on_shard(std::size_t shard,
                                      const Select& select) const {
  if (backend_ != nullptr) return backend_->execute_on(shard, select);
  return sharded_->shard(shard).execute(select);
}

std::size_t QueryExecutor::owner_of_id(std::int64_t id) const noexcept {
  if (sharded_ != nullptr) return sharded_->shard_index_for_id(id);
  const auto n = static_cast<std::int64_t>(shard_count());
  return static_cast<std::size_t>(((id - 1) % n + n) % n);
}

ResultSet QueryExecutor::gather(const std::vector<std::size_t>& shards,
                                const Select& select) const {
  if (shards.size() == 1) {
    single_shard_counter().inc();
    return run_on_shard(shards.front(), select);
  }
  scatter_counter().inc();

  const Select partial = build_partial(select);
  std::vector<ResultSet> parts(shards.size());
  std::vector<std::exception_ptr> errors(shards.size());
  {
    std::vector<std::thread> workers;
    workers.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      workers.emplace_back([&, i] {
        try {
          parts[i] = run_on_shard(shards[i], partial);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  ResultSet merged;
  if (!select.groups().empty() || !select.aggs().empty()) {
    merged = merge_aggregates(select, parts);
  } else {
    merged.columns = parts.front().columns;
    std::size_t total = 0;
    for (const auto& part : parts) total += part.rows.size();
    merged.rows.reserve(total);
    for (auto& part : parts) {
      for (auto& row : part.rows) merged.rows.push_back(std::move(row));
    }
  }
  apply_tail(select, merged);
  return merged;
}

ResultSet QueryExecutor::execute_uncached(const Select& select) const {
  if (single_) return single_->execute(select);
  std::vector<std::size_t> all(shard_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return gather(all, select);
}

std::shared_ptr<const ResultSet> QueryExecutor::execute(
    const Select& select) const {
  const std::string key = fingerprint(select);
  const std::uint64_t fp_hash = std::hash<std::string>{}(key);
  auto span = telemetry::SpanGuard::root("query.execute");
  span.attr("table", select.table());
  span.attr("fingerprint", hex_u64(fp_hash));
  const double start = telemetry::now();

  std::vector<std::uint64_t> versions = collect_versions(select);
  bool cache_hit = false;
  std::shared_ptr<const ResultSet> result;
  db::PlanInfo plan;
  if (auto cached = cache_->lookup(key, versions)) {
    // O(1) hit: hand back the cached snapshot itself; copying
    // fleet-wide rows per dashboard poll is exactly what the cache was
    // meant to avoid.
    cache_hit = true;
    result = std::move(cached);
  } else {
    result = std::make_shared<const ResultSet>(execute_uncached(select));
    // Planner attribution: last_plan_info() is thread_local, so it only
    // reflects this query when execution stayed on the calling thread
    // (a single Database, or a one-shard fleet). Multi-shard scatters
    // run on worker threads and report no per-query plan.
    // (Remote backends never report one: their execution ran in another
    // process, so this thread's plan info would be stale.)
    if (single_ != nullptr ||
        (sharded_ != nullptr && sharded_->shard_count() == 1)) {
      plan = db::last_plan_info();
      span.attr("plan_base_index", std::to_string(plan.base_index));
      span.attr("plan_base_scan", std::to_string(plan.base_scan));
      span.attr("plan_index_joins", std::to_string(plan.index_joins));
      span.attr("plan_hash_joins", std::to_string(plan.hash_joins));
      span.attr("plan_pushdowns", std::to_string(plan.join_pushdowns));
      span.attr("plan_semi_joins", std::to_string(plan.semi_joins));
      span.attr("plan_columnar", plan.columnar ? "true" : "false");
      if (plan.columnar) {
        span.attr("plan_segments_scanned",
                  std::to_string(plan.segments_scanned));
        span.attr("plan_segments_pruned",
                  std::to_string(plan.segments_pruned));
        span.attr("plan_range_index_probes",
                  std::to_string(plan.range_index_probes));
      }
    }
    // Only cache when no write committed while we were computing —
    // otherwise the result belongs to neither the before- nor the
    // after-stamp and must not be served again.
    if (collect_versions(select) == versions) {
      cache_->store(key, std::move(versions), result);
    }
  }
  span.attr("cache", cache_hit ? "hit" : "miss");
  span.attr("rows", std::to_string(result->rows.size()));

  const double elapsed = telemetry::now() - start;
  const double threshold = slow_query_threshold();
  if (threshold > 0.0 && elapsed >= threshold) {
    slow_query_counter().inc();
    span.attr("slow", "true");
    std::fprintf(stderr,
                 "[stampede.query.slow] fingerprint=%s table=%s "
                 "elapsed_ms=%.3f threshold_ms=%.3f cache=%s rows=%zu "
                 "plan_base_index=%llu plan_base_scan=%llu "
                 "plan_index_joins=%llu plan_hash_joins=%llu "
                 "plan_pushdowns=%llu plan_semi_joins=%llu "
                 "plan_columnar=%d\n",
                 hex_u64(fp_hash).c_str(), select.table().c_str(),
                 elapsed * 1e3, threshold * 1e3,
                 cache_hit ? "hit" : "miss", result->rows.size(),
                 static_cast<unsigned long long>(plan.base_index),
                 static_cast<unsigned long long>(plan.base_scan),
                 static_cast<unsigned long long>(plan.index_joins),
                 static_cast<unsigned long long>(plan.hash_joins),
                 static_cast<unsigned long long>(plan.join_pushdowns),
                 static_cast<unsigned long long>(plan.semi_joins),
                 plan.columnar ? 1 : 0);
  }
  return result;
}

std::optional<Value> QueryExecutor::scalar(const Select& select) const {
  const auto rs = execute(select);
  if (rs->rows.empty() || rs->rows.front().empty()) return std::nullopt;
  return rs->rows.front().front();
}

ResultSet QueryExecutor::execute_for(std::int64_t wf_id,
                                     const Select& select) const {
  if (single_) return single_->execute(select);
  return gather({owner_of_id(wf_id)}, select);
}

std::optional<Value> QueryExecutor::scalar_for(std::int64_t wf_id,
                                               const Select& select) const {
  if (single_) return single_->scalar(select);
  const ResultSet rs = execute_for(wf_id, select);
  if (rs.rows.empty() || rs.rows.front().empty()) return std::nullopt;
  return rs.rows.front().front();
}

ResultSet QueryExecutor::execute_for_ids(
    const std::vector<std::int64_t>& wf_ids, const Select& select) const {
  if (single_) return single_->execute(select);
  std::vector<std::size_t> shards;
  for (const std::int64_t id : wf_ids) {
    const std::size_t s = owner_of_id(id);
    if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
      shards.push_back(s);
    }
  }
  if (shards.empty()) return *execute(select);
  std::sort(shards.begin(), shards.end());
  return gather(shards, select);
}

std::size_t QueryExecutor::row_count(const std::string& table) const {
  if (single_) return single_->row_count(table);
  if (sharded_ != nullptr) return sharded_->row_count(table);
  // Remote fleet: one mergeable COUNT(*) scatter (cached like any other
  // fleet-wide query, so dashboard polls stay O(1) between writes).
  const auto count = scalar(Select{table}.count_all("n"));
  return count && count->is_int() ? static_cast<std::size_t>(count->as_int())
                                  : 0;
}

}  // namespace stampede::query
