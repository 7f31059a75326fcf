#include "loader/stampede_loader.hpp"

#include <cstdio>

#include "common/string_utils.hpp"
#include "common/time_utils.hpp"
#include "netlogger/events.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::loader {

namespace ev = nl::events;
namespace attr = nl::events::attr;
using db::Value;

namespace {
/// A deferred event is dropped after this many replay attempts.
constexpr std::size_t kMaxDeferRounds = 64;
}  // namespace

void LoaderStats::merge(const LoaderStats& other) {
  events_seen += other.events_seen;
  events_loaded += other.events_loaded;
  events_invalid += other.events_invalid;
  events_unknown += other.events_unknown;
  events_dropped += other.events_dropped;
  events_deferred += other.events_deferred;
  deferred_evicted += other.deferred_evicted;
  replay_deduped += other.replay_deduped;
  for (const auto& [event, count] : other.by_event) by_event[event] += count;
}

StampedeLoader::Instruments StampedeLoader::make_instruments() {
  auto& r = telemetry::registry();
  return {
      r.counter("stampede_loader_events_seen_total"),
      r.counter("stampede_loader_events_loaded_total"),
      r.counter("stampede_loader_events_invalid_total"),
      r.counter("stampede_loader_events_unknown_total"),
      r.counter("stampede_loader_events_dropped_total"),
      r.counter("stampede_loader_events_deferred_total"),
      r.counter("stampede_loader_deferred_dropped_total"),
      r.counter("stampede_loader_defer_warnings_total"),
      r.counter("stampede_loader_replay_deduped_total"),
      r.gauge("stampede_loader_deferred_depth"),
      r.histogram("stampede_e2e_publish_to_enqueue_seconds", {1e-7, 2.0, 32}),
      r.histogram("stampede_e2e_enqueue_to_dequeue_seconds"),
      r.histogram("stampede_e2e_publish_to_commit_seconds"),
  };
}

StampedeLoader::StampedeLoader(db::Database& database, LoaderOptions options)
    : session_(database, options.batch_size),
      options_(options),
      tele_(make_instruments()) {
  session_.set_commit_hook([this](std::size_t) { on_batch_commit(); });
}

StampedeLoader::~StampedeLoader() {
  // Flush while the commit hook (and the members it touches) are still
  // alive, then detach it so the Session's own destructor-flush cannot
  // call back into a partially destroyed loader.
  try {
    session_.flush();
  } catch (...) {
    // Mirrors Session::~Session: destructors must not throw.
  }
  session_.set_commit_hook({});
}

void StampedeLoader::abandon() noexcept {
  session_.set_commit_hook({});
  session_.discard();
}

std::optional<std::int64_t> StampedeLoader::wf_id(
    const common::Uuid& uuid) const {
  const auto it = wf_ids_.find(uuid);
  if (it == wf_ids_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// Identity resolution

std::optional<std::int64_t> StampedeLoader::resolve_wf(
    const nl::LogRecord& r) {
  const auto uuid = r.get_uuid(attr::kXwfId);
  if (!uuid) return std::nullopt;
  const auto it = wf_ids_.find(*uuid);
  if (it != wf_ids_.end()) return it->second;
  // Cache miss: the workflow may already exist in a recovered archive
  // (the loader is resumable over WAL-backed databases).
  const auto existing = session_.database().scalar(
      db::Select{"workflow"}
          .where(db::eq("wf_uuid", Value{uuid->to_string()}))
          .columns({"wf_id"}));
  if (existing && existing->is_int()) {
    wf_ids_.emplace(*uuid, existing->as_int());
    recovered_wfs_.insert(existing->as_int());
    return existing->as_int();
  }
  // First reference anywhere: queue a stub row that wf.plan will fill
  // in. This makes the loader robust to a sub-workflow's events arriving
  // before the parent's plan event names it.
  const std::int64_t id =
      session_.add("workflow", {{"wf_uuid", Value{uuid->to_string()}}});
  wf_ids_.emplace(*uuid, id);
  return id;
}

bool StampedeLoader::fresh(std::int64_t wf) const {
  return !redelivered_ && recovered_wfs_.count(wf) == 0;
}

std::optional<std::int64_t> StampedeLoader::resolve_job(
    std::int64_t wf, std::string_view exec_job_id) {
  const std::pair<std::int64_t, std::string> key{wf,
                                                 std::string{exec_job_id}};
  const auto it = job_ids_.find(key);
  if (it != job_ids_.end()) return it->second;
  // Every job of a fresh workflow was created by this loader and cached.
  if (fresh(wf)) return std::nullopt;
  // exec_job_id leads the conjunction: the executor probes the first
  // indexed equality, and exec_job_id is far more selective than wf_id.
  const auto existing = session_.database().scalar(
      db::Select{"job"}
          .where(db::and_(
              db::eq("exec_job_id", Value{std::string{exec_job_id}}),
              db::eq("wf_id", Value{wf})))
          .columns({"job_id"}));
  if (existing && existing->is_int()) {
    job_ids_.emplace(key, existing->as_int());
    return existing->as_int();
  }
  return std::nullopt;
}

std::optional<std::int64_t> StampedeLoader::resolve_job_instance(
    std::int64_t wf, std::string_view exec_job_id, std::int64_t submit_seq,
    bool create) {
  const std::tuple<std::int64_t, std::string, std::int64_t> key{
      wf, std::string{exec_job_id}, submit_seq};
  const auto it = job_instance_ids_.find(key);
  if (it != job_instance_ids_.end()) return it->second;
  const auto job = resolve_job(wf, exec_job_id);
  if (!job) return std::nullopt;
  if (!fresh(wf)) {
    const auto existing = session_.database().scalar(
        db::Select{"job_instance"}
            .where(db::and_(db::eq("job_id", Value{*job}),
                            db::eq("job_submit_seq", Value{submit_seq})))
            .columns({"job_instance_id"}));
    if (existing && existing->is_int()) {
      job_instance_ids_.emplace(key, existing->as_int());
      if (recovered_jis_.insert(existing->as_int()).second) {
        seed_job_instance_state(existing->as_int());
      }
      return existing->as_int();
    }
  }
  if (!create) return std::nullopt;
  const std::int64_t id = session_.add(
      "job_instance",
      {{"job_id", Value{*job}}, {"job_submit_seq", Value{submit_seq}}});
  job_instance_ids_.emplace(key, id);
  return id;
}

void StampedeLoader::seed_job_instance_state(std::int64_t job_instance_id) {
  // A recovered job instance must resume jobstate numbering after its
  // archived rows — restarting at 1 would collide the UNIQUE-like
  // (instance, seq) pairing downstream queries order by — and main.end
  // needs the EXECUTE timestamp back to compute local_duration.
  const auto max_seq = session_.database().scalar(
      db::Select{"jobstate"}
          .where(db::eq("job_instance_id", Value{job_instance_id}))
          .agg(db::AggFn::kMax, "jobstate_submit_seq", "max_seq"));
  if (max_seq && max_seq->is_int()) {
    jobstate_seq_[job_instance_id] = max_seq->as_int();
  }
  const auto exec_ts = session_.database().scalar(
      db::Select{"jobstate"}
          .where(db::and_(
              db::eq("job_instance_id", Value{job_instance_id}),
              db::eq("state", Value{std::string{jobstate::kExecute}})))
          .columns({"timestamp"}));
  if (exec_ts && exec_ts->is_real()) {
    execute_ts_[job_instance_id] = exec_ts->as_real();
  }
}

void StampedeLoader::add_jobstate(std::int64_t job_instance_id,
                                  std::string_view state, double ts) {
  if (redelivered_ &&
      replay_duplicate(
          db::Select{"jobstate"}
              .where(db::and_(
                  db::and_(db::eq("job_instance_id", Value{job_instance_id}),
                           db::eq("state", Value{std::string{state}})),
                  db::eq("timestamp", Value{ts})))
              .columns({"job_instance_id"}))) {
    return;  // Already archived before the crash/redelivery.
  }
  const std::int64_t seq = ++jobstate_seq_[job_instance_id];
  session_.add("jobstate", {{"job_instance_id", Value{job_instance_id}},
                            {"state", Value{std::string{state}}},
                            {"timestamp", Value{ts}},
                            {"jobstate_submit_seq", Value{seq}}});
}

bool StampedeLoader::replay_duplicate(const db::Select& probe) {
  session_.flush();
  const auto existing = session_.database().scalar(probe);
  if (!existing || existing->is_null()) return false;
  ++stats_.replay_deduped;
  tele_.replay_deduped.inc();
  return true;
}

void StampedeLoader::ack_now(std::uint64_t ack_tag) {
  if (ack_tag != 0 && ack_cb_) ack_cb_(ack_tag);
}

// ---------------------------------------------------------------------------
// Event handlers

StampedeLoader::Outcome StampedeLoader::on_wf_plan(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  if (!wf) return Outcome::kError;
  db::NamedValues sets;
  sets.emplace_back("timestamp", Value{r.ts()});
  if (const auto v = r.get(attr::kSubmitDir)) {
    sets.emplace_back("submit_dir", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kPlanner)) {
    sets.emplace_back("planner_version", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kUser)) {
    sets.emplace_back("user", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kDaxLabel)) {
    sets.emplace_back("dax_label", Value{std::string{*v}});
  }
  if (const auto parent = r.get_uuid(attr::kParentXwfId)) {
    // Resolve (stub-creating) the parent so hierarchy queries work even
    // if the parent's own plan event is still in flight.
    nl::LogRecord fake{r.ts(), std::string{ev::kWfPlan}};
    fake.set(attr::kXwfId, *parent);
    const auto parent_id = resolve_wf(fake);
    if (parent_id) sets.emplace_back("parent_wf_id", Value{*parent_id});
  }
  if (const auto root = r.get_uuid(attr::kRootXwfId)) {
    nl::LogRecord fake{r.ts(), std::string{ev::kWfPlan}};
    fake.set(attr::kXwfId, *root);
    const auto root_id = resolve_wf(fake);
    if (root_id) sets.emplace_back("root_wf_id", Value{*root_id});
  } else {
    sets.emplace_back("root_wf_id", Value{*wf});
  }
  session_.add_update_pk("workflow", *wf, std::move(sets));
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_xwf_state(const nl::LogRecord& r,
                                                     bool start) {
  const auto wf = resolve_wf(r);
  if (!wf) return Outcome::kError;
  const std::string_view state =
      start ? wfstate::kStarted : wfstate::kTerminated;
  if (redelivered_ &&
      replay_duplicate(
          db::Select{"workflowstate"}
              .where(db::and_(
                  db::and_(db::eq("wf_id", Value{*wf}),
                           db::eq("state", Value{std::string{state}})),
                  db::eq("timestamp", Value{r.ts()})))
              .columns({"wf_id"}))) {
    return Outcome::kApplied;
  }
  db::NamedValues row{
      {"wf_id", Value{*wf}},
      {"state", Value{std::string{state}}},
      {"timestamp", Value{r.ts()}},
  };
  if (const auto v = r.get_int(attr::kRestartCount)) {
    row.emplace_back("restart_count", Value{*v});
  }
  if (const auto v = r.get_int(attr::kStatus)) {
    row.emplace_back("status", Value{*v});
  }
  session_.add("workflowstate", std::move(row));
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_task_info(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto task = r.get(attr::kTaskId);
  const auto xform = r.get(attr::kTransformation);
  if (!wf || !task || !xform) return Outcome::kError;
  db::NamedValues row{
      {"wf_id", Value{*wf}},
      {"abs_task_id", Value{std::string{*task}}},
      {"transformation", Value{std::string{*xform}}},
  };
  if (const auto v = r.get(attr::kType)) {
    row.emplace_back("type", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kTypeDesc)) {
    row.emplace_back("type_desc", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kArgv)) {
    row.emplace_back("argv", Value{std::string{*v}});
  }
  // Idempotence lookups only for workflows recovered from an existing
  // archive or for redelivered events; fresh first-delivery workflows
  // take the fast batched path.
  if (recovered_wfs_.count(*wf) != 0 || redelivered_) {
    session_.flush();
    const auto existing = session_.database().scalar(
        db::Select{"task"}
            .where(db::and_(db::eq("wf_id", Value{*wf}),
                            db::eq("abs_task_id",
                                   Value{std::string{*task}})))
            .columns({"task_id"}));
    if (existing && existing->is_int()) {
      if (redelivered_) {
        ++stats_.replay_deduped;
        tele_.replay_deduped.inc();
      }
      row.erase(row.begin(), row.begin() + 2);  // Drop the key columns.
      session_.add_update_pk("task", existing->as_int(), std::move(row));
      return Outcome::kApplied;
    }
  }
  const std::int64_t id = session_.add("task", std::move(row));
  // First row wins, as the lowest task_id did for the indexed probe.
  task_ids_.try_emplace({*wf, std::string{*task}}, id);
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_task_edge(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto parent = r.get(attr::kParentTaskId);
  const auto child = r.get(attr::kChildTaskId);
  if (!wf || !parent || !child) return Outcome::kError;
  if (redelivered_ &&
      replay_duplicate(
          db::Select{"task_edge"}
              .where(db::and_(
                  db::and_(db::eq("wf_id", Value{*wf}),
                           db::eq("parent_abs_task_id",
                                  Value{std::string{*parent}})),
                  db::eq("child_abs_task_id", Value{std::string{*child}})))
              .columns({"wf_id"}))) {
    return Outcome::kApplied;
  }
  session_.add("task_edge",
               {{"wf_id", Value{*wf}},
                {"parent_abs_task_id", Value{std::string{*parent}}},
                {"child_abs_task_id", Value{std::string{*child}}}});
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_job_info(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto job = r.get(attr::kJobId);
  if (!wf || !job) return Outcome::kError;
  db::NamedValues row{
      {"wf_id", Value{*wf}},
      {"exec_job_id", Value{std::string{*job}}},
  };
  if (const auto v = r.get(attr::kType)) {
    row.emplace_back("type", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kTypeDesc)) {
    row.emplace_back("type_desc", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kTransformation)) {
    row.emplace_back("transformation", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kExecutable)) {
    row.emplace_back("executable", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kArgv)) {
    row.emplace_back("argv", Value{std::string{*v}});
  }
  if (const auto v = r.get_int("task_count")) {
    row.emplace_back("task_count", Value{*v});
  }
  // Idempotent over replayed logs.
  if (const auto existing = resolve_job(*wf, *job)) {
    row.erase(row.begin(), row.begin() + 2);  // Drop the key columns.
    session_.add_update_pk("job", *existing, std::move(row));
    return Outcome::kApplied;
  }
  const std::int64_t id = session_.add("job", std::move(row));
  job_ids_.emplace(std::make_pair(*wf, std::string{*job}), id);
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_job_edge(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto parent = r.get(attr::kParentJobId);
  const auto child = r.get(attr::kChildJobId);
  if (!wf || !parent || !child) return Outcome::kError;
  if (redelivered_ &&
      replay_duplicate(
          db::Select{"job_edge"}
              .where(db::and_(
                  db::and_(db::eq("wf_id", Value{*wf}),
                           db::eq("parent_exec_job_id",
                                  Value{std::string{*parent}})),
                  db::eq("child_exec_job_id", Value{std::string{*child}})))
              .columns({"wf_id"}))) {
    return Outcome::kApplied;
  }
  session_.add("job_edge",
               {{"wf_id", Value{*wf}},
                {"parent_exec_job_id", Value{std::string{*parent}}},
                {"child_exec_job_id", Value{std::string{*child}}}});
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_map_task_job(
    const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto task = r.get(attr::kTaskId);
  const auto job = r.get(attr::kJobId);
  if (!wf || !task || !job) return Outcome::kError;
  const auto job_pk = resolve_job(*wf, *job);
  if (!job_pk) return Outcome::kDefer;
  std::int64_t task_id = 0;
  if (fresh(*wf)) {
    // Every task of a fresh workflow was queued by on_task_info, which
    // recorded its key: the loader's hottest structural event in
    // clustered Pegasus workflows neither flushes nor queries.
    const auto it = task_ids_.find({*wf, std::string{*task}});
    if (it == task_ids_.end()) return Outcome::kDefer;
    task_id = it->second;
  } else {
    // Indexed probe (abs_task_id) + PK update over the archive.
    session_.flush();
    const auto rs = session_.database().execute(
        db::Select{"task"}
            .where(db::and_(db::eq("abs_task_id", Value{std::string{*task}}),
                            db::eq("wf_id", Value{*wf})))
            .columns({"task_id"}));
    if (rs.empty()) return Outcome::kDefer;
    task_id = rs.at(0, "task_id").as_int();
  }
  session_.add_update_pk("task", task_id, {{"job_id", Value{*job_pk}}});
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_map_subwf_job(
    const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto subwf = r.get_uuid(attr::kSubwfId);
  const auto job = r.get(attr::kJobId);
  if (!wf || !subwf || !job) return Outcome::kError;
  // Stub-resolve the sub-workflow so the association can be recorded
  // before the child's own events arrive.
  nl::LogRecord fake{r.ts(), std::string{ev::kWfPlan}};
  fake.set(attr::kXwfId, *subwf);
  const auto subwf_id = resolve_wf(fake);
  if (!subwf_id) return Outcome::kError;
  const std::int64_t seq = r.get_int(attr::kJobInstId).value_or(1);
  const auto ji = resolve_job_instance(*wf, *job, seq, /*create=*/true);
  if (!ji) return Outcome::kDefer;
  session_.add_update_pk("job_instance", *ji,
                         {{"subwf_id", Value{*subwf_id}}});
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_job_inst_event(
    const nl::LogRecord& r, std::string_view suffix) {
  const auto wf = resolve_wf(r);
  const auto job = r.get(attr::kJobId);
  const auto seq = r.get_int(attr::kJobInstId);
  if (!wf || !job || !seq) return Outcome::kError;

  const bool creates = suffix == "submit.start";
  const auto ji = resolve_job_instance(*wf, *job, *seq, creates);
  if (!ji) return Outcome::kDefer;

  if (suffix == "pre.start") {
    add_jobstate(*ji, jobstate::kPreScriptStarted, r.ts());
  } else if (suffix == "pre.term") {
    // Termination signal of the prescript; no state table entry.
  } else if (suffix == "pre.end") {
    const auto exit = r.get_int(attr::kExitcode).value_or(0);
    add_jobstate(*ji,
                 exit == 0 ? jobstate::kPreScriptSuccess
                           : jobstate::kPreScriptFailure,
                 r.ts());
  } else if (suffix == "submit.start") {
    add_jobstate(*ji, jobstate::kSubmit, r.ts());
    if (const auto v = r.get(attr::kSchedId)) {
      session_.add_update_pk("job_instance", *ji,
                             {{"sched_id", Value{std::string{*v}}}});
    }
  } else if (suffix == "submit.end") {
    // Submission acknowledged; nothing beyond the SUBMIT state already
    // recorded, unless it failed.
    if (r.get_int(attr::kStatus).value_or(0) != 0) {
      add_jobstate(*ji, jobstate::kFailure, r.ts());
    }
  } else if (suffix == "held.start") {
    add_jobstate(*ji, jobstate::kHeld, r.ts());
  } else if (suffix == "held.end") {
    add_jobstate(*ji, jobstate::kReleased, r.ts());
  } else if (suffix == "main.start") {
    add_jobstate(*ji, jobstate::kExecute, r.ts());
    execute_ts_[*ji] = r.ts();
    if (const auto v = r.get(attr::kSite)) {
      session_.add_update_pk("job_instance", *ji,
                             {{"site", Value{std::string{*v}}}});
    }
  } else if (suffix == "main.term") {
    add_jobstate(*ji, jobstate::kTerminated, r.ts());
  } else if (suffix == "main.end") {
    const auto exit = r.get_int(attr::kExitcode).value_or(0);
    add_jobstate(*ji, exit == 0 ? jobstate::kSuccess : jobstate::kFailure,
                 r.ts());
    db::NamedValues sets{{"exitcode", Value{exit}}};
    const auto started = execute_ts_.find(*ji);
    if (started != execute_ts_.end()) {
      sets.emplace_back("local_duration", Value{r.ts() - started->second});
    }
    if (const auto v = r.get(attr::kStdOut)) {
      sets.emplace_back("stdout_text", Value{std::string{*v}});
    }
    if (const auto v = r.get(attr::kStdErr)) {
      sets.emplace_back("stderr_text", Value{std::string{*v}});
    }
    if (const auto v = r.get(attr::kSite)) {
      sets.emplace_back("site", Value{std::string{*v}});
    }
    if (const auto v = r.get_double("multiplier_factor")) {
      sets.emplace_back("multiplier_factor", Value{*v});
    }
    session_.add_update_pk("job_instance", *ji, std::move(sets));
  } else if (suffix == "post.start") {
    add_jobstate(*ji, jobstate::kPostScriptStarted, r.ts());
  } else if (suffix == "post.term") {
    // As with pre.term, only the end event carries the exit code.
  } else if (suffix == "post.end") {
    const auto exit = r.get_int(attr::kExitcode).value_or(0);
    add_jobstate(*ji,
                 exit == 0 ? jobstate::kPostScriptSuccess
                           : jobstate::kPostScriptFailure,
                 r.ts());
  } else if (suffix == "image.info") {
    // Image size snapshots are accepted but not archived in this schema.
  } else {
    return Outcome::kError;
  }
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_host_info(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto job = r.get(attr::kJobId);
  const auto seq = r.get_int(attr::kJobInstId);
  const auto hostname = r.get(attr::kHostname);
  if (!wf || !job || !seq || !hostname) return Outcome::kError;
  const auto ji = resolve_job_instance(*wf, *job, *seq, /*create=*/false);
  if (!ji) return Outcome::kDefer;

  const std::pair<std::int64_t, std::string> key{*wf, std::string{*hostname}};
  auto it = host_ids_.find(key);
  if (it == host_ids_.end() &&
      (recovered_wfs_.count(*wf) != 0 || redelivered_)) {
    // Cache miss over a recovered archive: the host row may already
    // exist from the pre-crash run; inserting blindly would fork a
    // duplicate host_id and skew host-usage statistics.
    const auto existing = session_.database().scalar(
        db::Select{"host"}
            .where(db::and_(db::eq("wf_id", Value{*wf}),
                            db::eq("hostname",
                                   Value{std::string{*hostname}})))
            .columns({"host_id"}));
    if (existing && existing->is_int()) {
      it = host_ids_.emplace(key, existing->as_int()).first;
    }
  }
  if (it == host_ids_.end()) {
    db::NamedValues row{{"wf_id", Value{*wf}},
                        {"hostname", Value{std::string{*hostname}}}};
    if (const auto v = r.get(attr::kSite)) {
      row.emplace_back("site", Value{std::string{*v}});
    }
    if (const auto v = r.get(attr::kIp)) {
      row.emplace_back("ip", Value{std::string{*v}});
    }
    if (const auto v = r.get(attr::kUname)) {
      row.emplace_back("uname", Value{std::string{*v}});
    }
    if (const auto v = r.get_int(attr::kTotalMemory)) {
      row.emplace_back("total_memory", Value{*v});
    }
    const std::int64_t id = session_.add("host", std::move(row));
    it = host_ids_.emplace(key, id).first;
  }
  db::NamedValues sets{{"host_id", Value{it->second}}};
  if (const auto v = r.get(attr::kSite)) {
    sets.emplace_back("site", Value{std::string{*v}});
  }
  session_.add_update_pk("job_instance", *ji, std::move(sets));
  return Outcome::kApplied;
}

StampedeLoader::Outcome StampedeLoader::on_inv_end(const nl::LogRecord& r) {
  const auto wf = resolve_wf(r);
  const auto job = r.get(attr::kJobId);
  const auto seq = r.get_int(attr::kJobInstId);
  const auto inv = r.get_int(attr::kInvId);
  if (!wf || !job || !seq || !inv) return Outcome::kError;
  const auto ji = resolve_job_instance(*wf, *job, *seq, /*create=*/false);
  if (!ji) return Outcome::kDefer;

  db::NamedValues row{
      {"job_instance_id", Value{*ji}},
      {"wf_id", Value{*wf}},
      {"task_submit_seq", Value{*inv}},
      {"exitcode", Value{r.get_int(attr::kExitcode).value_or(0)}},
  };
  if (const auto v = r.get(attr::kTaskId)) {
    row.emplace_back("abs_task_id", Value{std::string{*v}});
  }
  if (const auto v = r.get_double(attr::kDur)) {
    row.emplace_back("remote_duration", Value{*v});
  }
  if (const auto v = r.get_double(attr::kRemoteCpuTime)) {
    row.emplace_back("remote_cpu_time", Value{*v});
  }
  if (const auto v = r.get("start_time")) {
    if (const auto ts = common::parse_timestamp(*v)) {
      row.emplace_back("start_time", Value{*ts});
    }
  }
  if (const auto v = r.get(attr::kTransformation)) {
    row.emplace_back("transformation", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kExecutable)) {
    row.emplace_back("executable", Value{std::string{*v}});
  }
  if (const auto v = r.get(attr::kArgv)) {
    row.emplace_back("argv", Value{std::string{*v}});
  }
  // Idempotence lookup only for job instances recovered from an
  // existing archive or for redelivered events.
  if (recovered_jis_.count(*ji) != 0 || redelivered_) {
    session_.flush();
    const auto existing = session_.database().scalar(
        db::Select{"invocation"}
            .where(db::and_(db::eq("job_instance_id", Value{*ji}),
                            db::eq("task_submit_seq", Value{*inv})))
            .columns({"invocation_id"}));
    if (existing && existing->is_int()) {
      if (redelivered_) {
        ++stats_.replay_deduped;
        tele_.replay_deduped.inc();
      }
      row.erase(row.begin(), row.begin() + 3);  // Drop the key columns.
      session_.add_update_pk("invocation", existing->as_int(),
                             std::move(row));
      return Outcome::kApplied;
    }
  }
  session_.add("invocation", std::move(row));
  return Outcome::kApplied;
}

// ---------------------------------------------------------------------------
// Dispatch

StampedeLoader::Outcome StampedeLoader::dispatch(const nl::LogRecord& r) {
  const std::string& e = r.event();
  if (e == ev::kWfPlan) return on_wf_plan(r);
  if (e == ev::kXwfStart) return on_xwf_state(r, true);
  if (e == ev::kXwfEnd) return on_xwf_state(r, false);
  if (e == ev::kTaskInfo) return on_task_info(r);
  if (e == ev::kTaskEdge) return on_task_edge(r);
  if (e == ev::kJobInfo) return on_job_info(r);
  if (e == ev::kJobEdge) return on_job_edge(r);
  if (e == ev::kMapTaskJob) return on_map_task_job(r);
  if (e == ev::kMapSubwfJob) return on_map_subwf_job(r);
  if (e == ev::kJobInstHostInfo) return on_host_info(r);
  if (e == ev::kInvStart) return Outcome::kApplied;  // Informational only.
  if (e == ev::kInvEnd) return on_inv_end(r);
  constexpr std::string_view kJobInstPrefix = "stampede.job_inst.";
  if (common::starts_with(e, kJobInstPrefix)) {
    return on_job_inst_event(r, std::string_view{e}.substr(
                                    kJobInstPrefix.size()));
  }
  return Outcome::kError;
}

void StampedeLoader::note_applied(const telemetry::TraceStamps& trace) {
  // Cross-process events have no steady publish stamp (it does not
  // travel), but a sampled TraceContext still awaits the commit so the
  // waterfall spans can be reconstructed.
  const bool wants_spans = trace.context.valid() && trace.context.sampled();
  if (!trace.traced() && !wants_spans) return;
  if (trace.traced() && trace.enqueued > 0.0) {
    tele_.publish_to_enqueue.observe(trace.enqueued - trace.published);
    if (trace.dequeued > 0.0) {
      tele_.enqueue_to_dequeue.observe(trace.dequeued - trace.enqueued);
    }
  }
  awaiting_commit_.push_back(trace);
}

void StampedeLoader::note_deferred_depth() {
  const std::size_t depth = deferred_.size();
  tele_.deferred_depth.set(static_cast<std::int64_t>(depth));
  if (options_.defer_warn_threshold == 0) return;
  if (depth > options_.defer_warn_threshold) {
    if (!defer_warned_) {
      defer_warned_ = true;
      tele_.defer_warnings.inc();
      std::fprintf(stderr,
                   "stampede_loader: warning: deferred-replay queue depth "
                   "%zu exceeds threshold %zu (event stream badly "
                   "reordered or referents missing)\n",
                   depth, options_.defer_warn_threshold);
    }
  } else if (depth <= options_.defer_warn_threshold / 2) {
    defer_warned_ = false;  // Re-arm once the backlog drains.
  }
}

void StampedeLoader::on_batch_commit() {
  if (!awaiting_commit_.empty()) {
    const double now = telemetry::now();
    for (const auto& trace : awaiting_commit_) {
      if (trace.traced()) {
        tele_.publish_to_commit.observe(now - trace.published);
      }
    }
    record_waterfall_spans(now);
    awaiting_commit_.clear();
  }
  // Rows are durable exactly when this hook fires, so these events'
  // acknowledgments are now safe: a crash after this point replays
  // nothing the archive does not already hold.
  if (!awaiting_ack_.empty()) {
    if (ack_cb_) {
      for (const std::uint64_t tag : awaiting_ack_) ack_cb_(tag);
    }
    awaiting_ack_.clear();
  }
  note_pending();
}

bool StampedeLoader::has_unflushed() const noexcept {
  return session_.pending() > 0 || !awaiting_commit_.empty() ||
         !awaiting_ack_.empty();
}

void StampedeLoader::note_pending() {
  if (!has_unflushed()) {
    has_pending_ = false;
  } else if (!has_pending_) {
    has_pending_ = true;
    pending_since_ = std::chrono::steady_clock::now();
  }
  // Already pending: keep the original (oldest) timestamp — the
  // deadline bounds the *oldest* event's wait, or a steady trickle
  // could push the flush out forever.
}

bool StampedeLoader::flush_deadline_due() const {
  if (options_.flush_deadline_ms == 0 || !has_pending_) return false;
  return std::chrono::steady_clock::now() - pending_since_ >=
         std::chrono::milliseconds(options_.flush_deadline_ms);
}

void StampedeLoader::maybe_deadline_flush() {
  if (flush_deadline_due()) flush_hint();
}

void StampedeLoader::record_waterfall_spans(double commit_steady) {
  if (!telemetry::enabled()) return;
  auto& tracer = telemetry::Tracer::instance();
  const double commit_wall = tracer.wall_at(commit_steady);
  for (const auto& trace : awaiting_commit_) {
    const auto& ctx = trace.context;
    if (!ctx.valid() || !ctx.sampled()) continue;
    // One child span per pipeline stage whose bounding stamps exist.
    // Wall stamps are anchored epoch seconds from whichever process
    // observed the stage, so the stages line up across hosts.
    const auto stage = [&](const char* name, double begin, double end) {
      if (begin <= 0.0 || end <= 0.0 || end < begin) return;
      telemetry::Span span;
      span.name = name;
      span.context = ctx;
      span.context.span_id = tracer.next_id();
      span.parent_span_id = ctx.span_id;
      span.start_wall = begin;
      span.duration = end - begin;
      tracer.record(std::move(span));
    };
    stage("publish", trace.published_wall, trace.enqueued_wall);
    if (trace.spooled_wall > 0.0) {
      stage("spool", trace.enqueued_wall, trace.spooled_wall);
      stage("queue", trace.spooled_wall, trace.dequeued_wall);
    } else {
      stage("queue", trace.enqueued_wall, trace.dequeued_wall);
    }
    stage("commit", trace.dequeued_wall, commit_wall);
    // The root pipeline span (the publisher's span id) closes here, at
    // the commit that made the event durable.
    double start = trace.published_wall;
    if (start <= 0.0) start = trace.enqueued_wall;
    if (start <= 0.0) start = trace.dequeued_wall;
    if (start <= 0.0 || commit_wall < start) continue;
    telemetry::Span root;
    root.name = "pipeline";
    root.context = ctx;
    root.start_wall = start;
    root.duration = commit_wall - start;
    tracer.record(std::move(root));
  }
}

void StampedeLoader::flush_hint() {
  if (!deferred_.empty()) replay_deferred();
  session_.flush();
  // Session::flush is a no-op (no hook) on an empty batch, but events
  // that produced no rows (inv.start, pre.term, ...) may still await
  // their acks.
  on_batch_commit();
}

bool StampedeLoader::process(const nl::LogRecord& record,
                             const telemetry::TraceStamps* trace,
                             bool redelivered, std::uint64_t ack_tag) {
  const bool applied = apply(record, trace, redelivered, ack_tag);
  maybe_deadline_flush();
  return applied;
}

bool StampedeLoader::apply(const nl::LogRecord& record,
                           const telemetry::TraceStamps* trace,
                           bool redelivered, std::uint64_t ack_tag) {
  ++stats_.events_seen;
  ++stats_.by_event[record.event()];
  tele_.seen.inc();
  if (options_.validate) {
    const auto report = yang::stampede_schema().validate(record);
    if (!report.ok()) {
      ++stats_.events_invalid;
      tele_.invalid.inc();
      ack_now(ack_tag);  // Will never produce rows; redelivery is useless.
      return false;
    }
  }
  redelivered_ = redelivered;
  const Outcome outcome = dispatch(record);
  redelivered_ = false;
  switch (outcome) {
    case Outcome::kApplied:
      ++stats_.events_loaded;
      tele_.loaded.inc();
      if (trace != nullptr) note_applied(*trace);
      if (ack_tag != 0) awaiting_ack_.push_back(ack_tag);
      if (!deferred_.empty()) replay_deferred();
      note_pending();
      return true;
    case Outcome::kDefer:
      ++stats_.events_deferred;
      tele_.deferred.inc();
      deferred_.push_back(
          {record, 0, trace != nullptr ? *trace : telemetry::TraceStamps{},
           redelivered, ack_tag});
      if (options_.defer_max != 0 && deferred_.size() > options_.defer_max) {
        // Hard cap: evict the oldest deferred event rather than letting
        // orphans grow the queue without bound.
        ack_now(deferred_.front().ack_tag);
        deferred_.pop_front();
        ++stats_.events_dropped;
        ++stats_.deferred_evicted;
        tele_.dropped.inc();
        tele_.deferred_dropped.inc();
      }
      note_deferred_depth();
      note_pending();  // A deferral can batch rows via replayed events.
      return false;
    case Outcome::kError:
      ++stats_.events_unknown;
      tele_.unknown.inc();
      ack_now(ack_tag);
      note_pending();
      return false;
  }
  return false;
}

void StampedeLoader::replay_deferred() {
  if (replaying_) return;
  replaying_ = true;
  bool progress = true;
  while (progress && !deferred_.empty()) {
    progress = false;
    const std::size_t n = deferred_.size();
    for (std::size_t i = 0; i < n; ++i) {
      Deferred item = std::move(deferred_.front());
      deferred_.pop_front();
      redelivered_ = item.redelivered;
      const Outcome outcome = dispatch(item.record);
      redelivered_ = false;
      if (outcome == Outcome::kApplied) {
        ++stats_.events_loaded;
        tele_.loaded.inc();
        note_applied(item.trace);
        if (item.ack_tag != 0) awaiting_ack_.push_back(item.ack_tag);
        progress = true;
      } else if (outcome == Outcome::kDefer) {
        if (++item.rounds >= kMaxDeferRounds) {
          ++stats_.events_dropped;
          tele_.dropped.inc();
          ack_now(item.ack_tag);
        } else {
          deferred_.push_back(std::move(item));
        }
      } else {
        ++stats_.events_unknown;
        tele_.unknown.inc();
        ack_now(item.ack_tag);
      }
    }
  }
  replaying_ = false;
  note_deferred_depth();
}

void StampedeLoader::finish() {
  replay_deferred();
  stats_.events_dropped += deferred_.size();
  tele_.dropped.inc(deferred_.size());
  for (const Deferred& item : deferred_) ack_now(item.ack_tag);
  deferred_.clear();
  note_deferred_depth();
  session_.flush();
  on_batch_commit();  // Release acks even when the final batch was empty.
}

}  // namespace stampede::loader
