#pragma once
// Seeded workflow-fleet generator in the WfCommons style: recipes of
// Pegasus Montage-like level DAGs (with task failures and retries),
// Triana chains and fork-joins, and DART-style sub-workflow trees. The
// workflows of a fleet are staggered in virtual time and interleaved
// into one BP stream, the way nl_load sees a busy submit host's log.
//
// Every event carries a distinct timestamp (microsecond resolution), so
// the timestamp of a row in the archive names the event that wrote it.
// The generator also derives, from the stream alone, how many rows each
// archive table must hold once the stream is loaded.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/uuid.hpp"

namespace pipebench {

/// A count of workflows of one shape and size.
struct SizeCount {
  int size = 0;   ///< Tasks per workflow (per child for DART trees).
  int count = 0;  ///< Workflows of this size.
};

/// A fleet recipe; the workload parameters set every value.
struct FleetParams {
  std::vector<SizeCount> montage;          ///< Pegasus Montage-like DAGs.
  std::vector<SizeCount> triana_chain;     ///< Triana pipelines.
  std::vector<SizeCount> triana_forkjoin;  ///< Triana fan-out/fan-in.
  std::vector<SizeCount> dart_tree;        ///< Sub-workflow trees.
  int dart_children = 0;                   ///< Sub-workflows per DART root.
  double failure_prob = 0.0;   ///< Chance that one Montage attempt fails.
  int max_retries = 0;         ///< Failed attempts before a forced success.
  /// Virtual seconds between consecutive workflow starts; smaller values
  /// interleave more workflows at once.
  double stagger_s = 0.0;
  /// Shards the archive partitions workflows over (FNV-1a of the
  /// workflow UUID, as db::ShardedDatabase and cluster::Router place
  /// them). Root UUIDs are drawn so that every shard gets about the same
  /// number of tasks: one large workflow never pins a single lane.
  int shards = 1;
};

/// Parses "16:8,64:4" into size/count pairs.
[[nodiscard]] std::vector<SizeCount> parse_size_counts(const std::string& text);

struct WorkflowMeta {
  stampede::common::Uuid uuid;
  std::string kind;  ///< montage | chain | forkjoin | dart
  int tasks = 0;     ///< Tasks in the workflow's whole tree.
  bool root = true;  ///< False for DART sub-workflows.
};

/// Archive tables whose row counts the output checks compare.
inline constexpr std::array<const char*, 10> kTables = {
    "workflow", "workflowstate", "task",       "task_edge",  "job",
    "job_edge", "job_instance",  "jobstate",   "invocation", "host"};

/// Rows one event adds to each table of kTables.
using RowDelta = std::array<std::uint8_t, kTables.size()>;

struct Fleet {
  std::vector<std::string> lines;  ///< BP lines in send order.
  /// Rows each line adds when the lines are loaded in order into an
  /// archive (indexed like `lines`).
  std::vector<RowDelta> row_deltas;
  std::vector<WorkflowMeta> workflows;
  /// Whether each line writes a jobstate or workflowstate row (the rows
  /// the live views track); indexed like `lines`.
  std::vector<bool> writes_state_row;
  std::vector<double> ts;  ///< Timestamp of each line.
};

/// Builds one fleet. Workflow UUIDs, structure details, runtimes,
/// failures and interleaving all derive from `seed`; the shape mix comes
/// from `params`, so different seeds give fleets of the same size mix.
[[nodiscard]] Fleet generate_fleet(const FleetParams& params,
                                   std::uint64_t seed);

/// Appends `later` to `earlier`: the stream of a log that holds one
/// fleet and then another.
void append_fleet(Fleet& earlier, Fleet later);

/// Rows lines [begin, end) add, by table name.
[[nodiscard]] std::map<std::string, std::int64_t> expected_rows(
    const Fleet& fleet, std::size_t begin, std::size_t end);

/// Timestamp key: the integer microsecond a timestamp names.
[[nodiscard]] std::int64_t ts_key(double ts);

}  // namespace pipebench
