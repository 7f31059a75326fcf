#pragma once
// The stampede_loader module (paper §IV-D/E): consumes normalized BP
// events and populates the relational archive.
//
// Responsibilities:
//   * validate each event against the YANG schema (drop + count on error)
//   * resolve entity identities (wf_uuid → wf_id, exec_job_id → job_id,
//     (job, submit_seq) → job_instance_id) through write-through caches
//   * translate lifecycle events into workflowstate/jobstate rows and
//     job_instance/invocation updates
//   * batch inserts through the ORM session (the optimization §V-D
//     mentions: similar inserts are batched together)
//   * tolerate modest event reordering by deferring records whose
//     referents have not arrived yet and replaying them when they do

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/uuid.hpp"
#include "loader/event_sink.hpp"
#include "netlogger/record.hpp"
#include "orm/session.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "yang/validator.hpp"

namespace stampede::loader {

/// Canonical jobstate names written to the jobstate table (the SUBMIT,
/// EXECUTE, JOB_SUCCESS... vocabulary from paper §IV-D).
namespace jobstate {
inline constexpr std::string_view kPreScriptStarted = "PRE_SCRIPT_STARTED";
inline constexpr std::string_view kPreScriptSuccess = "PRE_SCRIPT_SUCCESS";
inline constexpr std::string_view kPreScriptFailure = "PRE_SCRIPT_FAILURE";
inline constexpr std::string_view kSubmit = "SUBMIT";
inline constexpr std::string_view kExecute = "EXECUTE";
inline constexpr std::string_view kHeld = "JOB_HELD";
inline constexpr std::string_view kReleased = "JOB_RELEASED";
inline constexpr std::string_view kTerminated = "JOB_TERMINATED";
inline constexpr std::string_view kSuccess = "JOB_SUCCESS";
inline constexpr std::string_view kFailure = "JOB_FAILURE";
inline constexpr std::string_view kPostScriptStarted = "POST_SCRIPT_STARTED";
inline constexpr std::string_view kPostScriptSuccess = "POST_SCRIPT_SUCCESS";
inline constexpr std::string_view kPostScriptFailure = "POST_SCRIPT_FAILURE";
}  // namespace jobstate

/// Workflow-level states written to the workflowstate table.
namespace wfstate {
inline constexpr std::string_view kStarted = "WORKFLOW_STARTED";
inline constexpr std::string_view kTerminated = "WORKFLOW_TERMINATED";
}  // namespace wfstate

struct LoaderOptions {
  bool validate = true;        ///< Run YANG validation on every event.
  std::size_t batch_size = 256;
  /// Log a warning (and count it) when the deferred-replay queue grows
  /// past this depth — sustained growth means the event stream is badly
  /// reordered or referents are missing. 0 disables the warning.
  std::size_t defer_warn_threshold = 1024;
  /// Hard cap on the deferred-replay queue. A deferral past this depth
  /// evicts the oldest deferred event (counted as dropped, plus the
  /// stampede_loader_deferred_dropped_total metric), so a stream of
  /// orphaned events can never grow memory without bound. 0 disables
  /// the cap.
  std::size_t defer_max = 65536;
  /// Age-based flush deadline: applied-but-uncommitted work (batched
  /// rows, unreleased acks) is force-flushed once the oldest piece has
  /// waited this long — so a trickling event stream that never fills a
  /// batch still sees bounded commit/ack latency. process() checks it
  /// after every event, whoever drives the loader; a loader::Lane also
  /// checks it when its queue goes quiet. 0 disables.
  std::size_t flush_deadline_ms = 250;
};

struct LoaderStats {
  std::uint64_t events_seen = 0;
  std::uint64_t events_loaded = 0;
  std::uint64_t events_invalid = 0;    ///< Failed YANG validation.
  std::uint64_t events_unknown = 0;    ///< Event name not handled.
  std::uint64_t events_dropped = 0;    ///< Deferred past max rounds.
  std::uint64_t events_deferred = 0;   ///< Total deferral episodes.
  std::uint64_t deferred_evicted = 0;  ///< Evicted by the defer_max cap.
  std::uint64_t replay_deduped = 0;    ///< Redelivered rows already archived.
  std::map<std::string, std::uint64_t> by_event;

  /// Accumulates `other` into this (used to aggregate per-lane stats).
  void merge(const LoaderStats& other);
};

class StampedeLoader final : public EventSink {
 public:
  /// The database must already contain the Stampede schema
  /// (orm::create_stampede_schema).
  explicit StampedeLoader(db::Database& database, LoaderOptions options = {});

  ~StampedeLoader() override;

  /// Feeds one event. Returns true when the event was applied (possibly
  /// after deferred replay of earlier events), false when it was
  /// rejected or deferred. `trace` carries the bus-side trace stamps for
  /// events arriving through a QueuePump; the loader completes them into
  /// end-to-end publish→commit latency when the ORM transaction holding
  /// the event's rows commits. nullptr (file replays) skips tracing.
  ///
  /// `redelivered` marks an event the bus may already have delivered
  /// (crash replay or nack-requeue): the loader takes the idempotent
  /// slow path, checking the archive before inserting append-only rows,
  /// so at-least-once delivery converges to the same archive.
  ///
  /// `ack_tag` (0 = none) is handed to the ack callback once the
  /// event's rows are durably committed — or immediately when the event
  /// produces no rows (invalid, unknown, deduped, dropped) — giving the
  /// bus ack-after-commit semantics. Ends with maybe_deadline_flush().
  bool process(const nl::LogRecord& record,
               const telemetry::TraceStamps* trace = nullptr,
               bool redelivered = false,
               std::uint64_t ack_tag = 0) override;

  /// Receives each processed event's `ack_tag` once it is safe to
  /// acknowledge on the bus (rows committed, or no rows to commit).
  void set_ack_callback(std::function<void(std::uint64_t)> callback) override {
    ack_cb_ = std::move(callback);
  }

  /// Commits pending batched rows and releases their acks; call when
  /// the input stream goes idle so acknowledgments (and therefore
  /// QueuePump::wait_until_drained) do not wait for a full batch.
  void flush_hint() override;

  /// True when applied-but-uncommitted work has been waiting longer
  /// than LoaderOptions::flush_deadline_ms.
  [[nodiscard]] bool flush_deadline_due() const;

  /// flush_hint() iff flush_deadline_due() — the bounded-ack-latency
  /// guarantee for trickle input that never fills a batch.
  void maybe_deadline_flush();

  /// Flushes batched inserts and replays deferred events one last time.
  /// Call when the input stream ends (or periodically for real-time
  /// readers).
  void finish() override;

  /// Crash simulation: drops the buffered uncommitted batch and detaches
  /// the commit hook, so neither this loader's destructor nor its
  /// session's writes anything. Acks for the dropped events never fire.
  void abandon() noexcept;

  [[nodiscard]] const LoaderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t deferred_count() const noexcept {
    return deferred_.size();
  }
  [[nodiscard]] orm::Session& session() noexcept { return session_; }

  /// Resolved wf_id for a workflow UUID, if this loader has seen it.
  [[nodiscard]] std::optional<std::int64_t> wf_id(
      const common::Uuid& uuid) const;

 private:
  enum class Outcome { kApplied, kDefer, kError };

  /// process() without the deadline check.
  bool apply(const nl::LogRecord& record, const telemetry::TraceStamps* trace,
             bool redelivered, std::uint64_t ack_tag);
  Outcome dispatch(const nl::LogRecord& record);
  void replay_deferred();

  /// Bookkeeping shared by process() and replay_deferred() when an event
  /// lands: stage latencies now, publish→commit when the batch commits.
  void note_applied(const telemetry::TraceStamps& trace);
  /// Anything applied but not yet committed (batched rows, held acks)?
  [[nodiscard]] bool has_unflushed() const noexcept;
  /// Starts/stops the flush-deadline clock to match has_unflushed().
  void note_pending();
  void note_deferred_depth();
  void on_batch_commit();

  // Handlers, one per event family.
  Outcome on_wf_plan(const nl::LogRecord& r);
  Outcome on_xwf_state(const nl::LogRecord& r, bool start);
  Outcome on_task_info(const nl::LogRecord& r);
  Outcome on_task_edge(const nl::LogRecord& r);
  Outcome on_job_info(const nl::LogRecord& r);
  Outcome on_job_edge(const nl::LogRecord& r);
  Outcome on_map_task_job(const nl::LogRecord& r);
  Outcome on_map_subwf_job(const nl::LogRecord& r);
  Outcome on_job_inst_event(const nl::LogRecord& r, std::string_view suffix);
  Outcome on_host_info(const nl::LogRecord& r);
  Outcome on_inv_end(const nl::LogRecord& r);

  // Identity resolution. A *fresh* workflow is one this loader created
  // (not recovered from the archive) seen through a first delivery:
  // every row of it was queued here, so the id maps below answer every
  // lookup and a miss means "not yet" — no flush, no DB probe.
  // Recovered workflows and redelivered events flush and probe the
  // archive instead.
  [[nodiscard]] bool fresh(std::int64_t wf) const;
  std::optional<std::int64_t> resolve_wf(const nl::LogRecord& r);
  std::optional<std::int64_t> resolve_job(std::int64_t wf,
                                          std::string_view exec_job_id);
  /// Resolves — creating on demand for submit.start — the job instance.
  std::optional<std::int64_t> resolve_job_instance(std::int64_t wf,
                                                   std::string_view exec_job_id,
                                                   std::int64_t submit_seq,
                                                   bool create);
  /// Rebuilds the in-memory per-instance state (jobstate numbering, the
  /// EXECUTE timestamp) for a job instance found in a recovered archive.
  void seed_job_instance_state(std::int64_t job_instance_id);

  void add_jobstate(std::int64_t job_instance_id, std::string_view state,
                    double ts);

  /// True when `probe` finds a row — the redelivered event's work is
  /// already archived. Flushes first so batched rows are visible.
  bool replay_duplicate(const db::Select& probe);
  /// Fires the ack callback right away (events that never produce rows).
  void ack_now(std::uint64_t ack_tag);

  orm::Session session_;
  LoaderOptions options_;
  LoaderStats stats_;

  // Caches. Keys use owned strings; lookups are per-event so the extra
  // allocation is irrelevant next to the insert cost.
  std::unordered_map<common::Uuid, std::int64_t> wf_ids_;
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> job_ids_;
  std::map<std::tuple<std::int64_t, std::string, std::int64_t>, std::int64_t>
      job_instance_ids_;
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> host_ids_;
  /// (wf_id, abs_task_id) → task_id, filled when on_task_info queues
  /// the row; on_map_task_job reads it for fresh workflows.
  std::map<std::pair<std::int64_t, std::string>, std::int64_t> task_ids_;
  std::unordered_map<std::int64_t, std::int64_t> jobstate_seq_;
  std::unordered_map<std::int64_t, double> execute_ts_;
  /// Identities resolved from a pre-existing (recovered) archive rather
  /// than created by this loader — only these need the slow idempotence
  /// lookups; fresh identities take the fast batched path.
  std::set<std::int64_t> recovered_wfs_;
  std::set<std::int64_t> recovered_jis_;

  struct Deferred {
    nl::LogRecord record;
    std::size_t rounds = 0;
    telemetry::TraceStamps trace;  ///< Deferral counts toward e2e latency.
    bool redelivered = false;      ///< Keep the dedup path across replays.
    std::uint64_t ack_tag = 0;     ///< Acked when applied+committed/dropped.
  };
  std::deque<Deferred> deferred_;
  bool replaying_ = false;
  /// True while dispatching an event the bus flagged as redelivered;
  /// handlers use it to take the archive-checking idempotent path.
  bool redelivered_ = false;

  // Self-telemetry. Instruments are resolved once at construction; the
  // per-event path touches only relaxed atomics.
  struct Instruments {
    telemetry::Counter& seen;
    telemetry::Counter& loaded;
    telemetry::Counter& invalid;
    telemetry::Counter& unknown;
    telemetry::Counter& dropped;
    telemetry::Counter& deferred;
    telemetry::Counter& deferred_dropped;
    telemetry::Counter& defer_warnings;
    telemetry::Counter& replay_deduped;
    telemetry::Gauge& deferred_depth;
    telemetry::Histogram& publish_to_enqueue;
    telemetry::Histogram& enqueue_to_dequeue;
    telemetry::Histogram& publish_to_commit;
  };
  static Instruments make_instruments();
  Instruments tele_;
  /// Reconstructs the publish→enqueue→spool→dequeue→commit waterfall
  /// spans for every sampled event in the closing batch (DESIGN.md §11).
  void record_waterfall_spans(double commit_steady);
  /// Trace stamps of applied-but-not-yet-committed events; drained into
  /// the publish→commit histogram (and, for sampled traces, waterfall
  /// spans) by the session's commit hook.
  std::vector<telemetry::TraceStamps> awaiting_commit_;
  /// Ack tags of applied-but-not-yet-committed events; released to
  /// ack_cb_ by the same commit hook (acked ⊆ committed).
  std::vector<std::uint64_t> awaiting_ack_;
  std::function<void(std::uint64_t)> ack_cb_;
  bool defer_warned_ = false;
  /// Flush-deadline clock: set when uncommitted work first appears,
  /// cleared when a commit drains it (see flush_deadline_due()).
  bool has_pending_ = false;
  std::chrono::steady_clock::time_point pending_since_{};
};

}  // namespace stampede::loader
