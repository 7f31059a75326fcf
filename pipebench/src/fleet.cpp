#include "fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "netlogger/events.hpp"
#include "netlogger/formatter.hpp"
#include "netlogger/record.hpp"

namespace pipebench {
namespace {

namespace ev = stampede::nl::events;
namespace attr = stampede::nl::events::attr;
using stampede::common::Rng;
using stampede::common::Uuid;
using stampede::nl::LogRecord;

/// Epoch the virtual clock starts at (2020-09-13, a plausible log date).
constexpr double kEpoch = 1.6e9;

/// Execution hosts jobs are spread over.
constexpr int kHosts = 24;

enum Table : std::size_t {
  kWorkflow,
  kWorkflowstate,
  kTask,
  kTaskEdge,
  kJob,
  kJobEdge,
  kJobInstance,
  kJobstate,
  kInvocation,
  kHost,
};

struct Event {
  double vt = 0.0;  ///< Virtual seconds since the fleet began.
  LogRecord record;
  bool state_row = false;
  RowDelta rows{};
};

RowDelta rows_of(std::initializer_list<std::pair<Table, int>> adds) {
  RowDelta d{};
  for (const auto& [table, n] : adds) d[table] += static_cast<std::uint8_t>(n);
  return d;
}

/// One job of a workflow DAG.
struct Job {
  std::string id;
  std::string transformation;
  double mean_runtime = 10.0;
  std::vector<int> parents;
};

/// Accumulates one workflow's events and the rows they will write.
class WorkflowEmitter {
 public:
  WorkflowEmitter(Uuid uuid, double start, Rng& rng, const FleetParams& params)
      : uuid_(uuid), start_(start), rng_(&rng), params_(&params) {}

  LogRecord base(std::string_view event) const {
    LogRecord r{0.0, std::string{event}};
    r.set(attr::kXwfId, uuid_);
    return r;
  }

  void emit(double vt, LogRecord r, RowDelta rows = {},
            bool state_row = false) {
    events_.push_back(Event{start_ + vt, std::move(r), state_row, rows});
  }

  /// `stub_exists`: an earlier event (the parent's subwf map) already
  /// created this workflow's row.
  void plan(const std::string& label, const Uuid* parent, const Uuid* root,
            bool stub_exists = false) {
    LogRecord r = base(ev::kWfPlan);
    r.set(attr::kSubmitDir, "/home/pipebench/submit/" + label);
    r.set(attr::kPlanner, std::string{"4.0.1"});
    r.set(attr::kUser, std::string{"pipebench"});
    r.set(attr::kDaxLabel, label);
    if (parent != nullptr) r.set(attr::kParentXwfId, *parent);
    if (root != nullptr) r.set(attr::kRootXwfId, *root);
    emit(0.0, std::move(r), stub_exists ? RowDelta{} : rows_of({{kWorkflow, 1}}));
  }

  void xwf(bool start, double vt, int status = 0) {
    LogRecord r = base(start ? ev::kXwfStart : ev::kXwfEnd);
    r.set(attr::kRestartCount, std::int64_t{0});
    if (!start) r.set(attr::kStatus, std::int64_t{status});
    emit(vt, std::move(r), rows_of({{kWorkflowstate, 1}}), true);
  }

  /// Static description: optional tasks (1:1 with jobs), jobs and edges.
  void describe(const std::vector<Job>& jobs, bool with_tasks,
                const std::string& job_type) {
    if (with_tasks) {
      for (const auto& j : jobs) {
        LogRecord r = base(ev::kTaskInfo);
        r.set(attr::kTaskId, "t_" + j.id);
        r.set(attr::kTransformation, j.transformation);
        r.set(attr::kType, std::string{"compute"});
        emit(0.0, std::move(r), rows_of({{kTask, 1}}));
      }
      for (const auto& j : jobs) {
        for (const int p : j.parents) {
          LogRecord r = base(ev::kTaskEdge);
          r.set(attr::kParentTaskId, "t_" + jobs[p].id);
          r.set(attr::kChildTaskId, "t_" + j.id);
          emit(0.0, std::move(r), rows_of({{kTaskEdge, 1}}));
        }
      }
    }
    for (const auto& j : jobs) {
      LogRecord r = base(ev::kJobInfo);
      r.set(attr::kJobId, j.id);
      r.set(attr::kType, job_type);
      r.set(attr::kTransformation, j.transformation);
      r.set("task_count", std::int64_t{with_tasks ? 1 : 0});
      emit(0.0, std::move(r), rows_of({{kJob, 1}}));
    }
    if (with_tasks) {
      for (const auto& j : jobs) {
        LogRecord r = base(ev::kMapTaskJob);
        r.set(attr::kTaskId, "t_" + j.id);
        r.set(attr::kJobId, j.id);
        emit(0.0, std::move(r));
      }
    }
    for (const auto& j : jobs) {
      for (const int p : j.parents) {
        LogRecord r = base(ev::kJobEdge);
        r.set(attr::kParentJobId, jobs[p].id);
        r.set(attr::kChildJobId, j.id);
        emit(0.0, std::move(r), rows_of({{kJobEdge, 1}}));
      }
    }
  }

  LogRecord job_event(std::string_view event, const Job& job, int attempt) {
    LogRecord r = base(event);
    r.set(attr::kJobInstId, std::int64_t{attempt});
    r.set(attr::kJobId, job.id);
    return r;
  }

  /// Runs every job of the DAG once its parents end; Pegasus jobs get
  /// post-scripts and retried failures. Returns the last end time.
  double run_dag(const std::vector<Job>& jobs, double t0, bool pegasus,
                 bool with_tasks) {
    std::vector<double> end(jobs.size(), t0);
    double last = t0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {  // Parents come first.
      double ready = t0;
      for (const int p : jobs[i].parents) ready = std::max(ready, end[p]);
      end[i] = run_job(jobs[i], ready, pegasus, with_tasks);
      last = std::max(last, end[i]);
    }
    return last;
  }

  double run_job(const Job& job, double ready, bool pegasus, bool with_tasks) {
    double t = ready + rng_->uniform(0.1, 1.0);
    for (int attempt = 1;; ++attempt) {
      const bool fail = pegasus && attempt <= params_->max_retries &&
                        rng_->chance(params_->failure_prob);
      const std::string host =
          "host-" + std::to_string(rng_->uniform_int(0, kHosts - 1));
      LogRecord submit = job_event(ev::kJobInstSubmitStart, job, attempt);
      submit.set(attr::kSchedId, std::to_string(++sched_seq_) + ".0");
      emit(t, std::move(submit), rows_of({{kJobInstance, 1}, {kJobstate, 1}}),
           true);
      LogRecord submitted = job_event(ev::kJobInstSubmitEnd, job, attempt);
      submitted.set(attr::kStatus, std::int64_t{0});
      emit(t, std::move(submitted));

      const double exec = t + rng_->exponential(4.0);
      LogRecord main_start = job_event(ev::kJobInstMainStart, job, attempt);
      main_start.set(attr::kSite, std::string{"condorpool"});
      emit(exec, std::move(main_start), rows_of({{kJobstate, 1}}), true);
      LogRecord host_info = job_event(ev::kJobInstHostInfo, job, attempt);
      host_info.set(attr::kHostname, host);
      host_info.set(attr::kSite, std::string{"condorpool"});
      emit(exec, std::move(host_info));  // Host rows are counted later.

      const double dur = job.mean_runtime * rng_->uniform(0.5, 1.5);
      const double done = exec + dur;
      const std::int64_t exitcode = fail ? 1 : 0;
      if (pegasus) {
        LogRecord term = job_event(ev::kJobInstMainTerm, job, attempt);
        term.set(attr::kStatus, std::int64_t{fail ? -1 : 0});
        emit(done, std::move(term), rows_of({{kJobstate, 1}}), true);
      }
      LogRecord main_end = job_event(ev::kJobInstMainEnd, job, attempt);
      main_end.set(attr::kExitcode, exitcode);
      main_end.set(attr::kSite, std::string{"condorpool"});
      if (fail) main_end.set(attr::kStdErr, std::string{"segfault"});
      emit(done, std::move(main_end), rows_of({{kJobstate, 1}}), true);

      LogRecord inv = base(ev::kInvEnd);
      inv.set(attr::kJobInstId, std::int64_t{attempt});
      inv.set(attr::kJobId, job.id);
      inv.set(attr::kInvId, std::int64_t{1});
      if (with_tasks) inv.set(attr::kTaskId, "t_" + job.id);
      inv.set("start_time", kEpoch + exec);
      inv.set(attr::kDur, dur);
      inv.set(attr::kRemoteCpuTime, dur * 0.9);
      inv.set(attr::kExitcode, exitcode);
      inv.set(attr::kTransformation, job.transformation);
      inv.set(attr::kSite, std::string{"condorpool"});
      emit(done, std::move(inv), rows_of({{kInvocation, 1}}));

      double end = done;
      if (pegasus) {
        emit(done, job_event(ev::kJobInstPostStart, job, attempt),
             rows_of({{kJobstate, 1}}), true);
        end = done + 0.5;
        LogRecord post = job_event(ev::kJobInstPostEnd, job, attempt);
        post.set(attr::kExitcode, exitcode);
        emit(end, std::move(post), rows_of({{kJobstate, 1}}), true);
      }
      if (!fail) return end;
      t = end + rng_->uniform(1.0, 5.0);  // DAGMan retry delay.
    }
  }

  std::vector<Event> take() { return std::move(events_); }

 private:
  Uuid uuid_;
  double start_;
  Rng* rng_;
  const FleetParams* params_;
  std::vector<Event> events_;
  int sched_seq_ = 0;
};

Job make_job(std::string id, std::string xform, double mean,
             std::vector<int> parents = {}) {
  return Job{std::move(id), std::move(xform), mean, std::move(parents)};
}

/// Montage-like levels: project, pairwise diff-fit, concat, background
/// model, background correction, table, co-add, then viewer sinks.
std::vector<Job> montage_jobs(int tasks) {
  const int n = std::max(1, (tasks - 5) / 3);
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(make_job("mProject_" + std::to_string(i), "mProjectPP", 12));
  }
  for (int i = 0; i < n; ++i) {
    std::vector<int> parents{i};
    if (n > 1) parents.push_back((i + 1) % n);
    jobs.push_back(
        make_job("mDiffFit_" + std::to_string(i), "mDiffFit", 3, parents));
  }
  std::vector<int> diffs;
  for (int i = 0; i < n; ++i) diffs.push_back(n + i);
  jobs.push_back(make_job("mConcatFit", "mConcatFit", 20, diffs));
  const int concat = static_cast<int>(jobs.size()) - 1;
  jobs.push_back(make_job("mBgModel", "mBgModel", 30, {concat}));
  const int model = static_cast<int>(jobs.size()) - 1;
  std::vector<int> backgrounds;
  for (int i = 0; i < n; ++i) {
    backgrounds.push_back(static_cast<int>(jobs.size()));
    jobs.push_back(make_job("mBackground_" + std::to_string(i), "mBackground",
                            4, {model, i}));
  }
  jobs.push_back(make_job("mImgtbl", "mImgtbl", 6, backgrounds));
  jobs.push_back(make_job("mAdd", "mAdd", 40,
                          {static_cast<int>(jobs.size()) - 1}));
  const int add = static_cast<int>(jobs.size()) - 1;
  for (int i = static_cast<int>(jobs.size()); i < tasks; ++i) {
    jobs.push_back(make_job("mViewer_" + std::to_string(i), "mViewer", 5, {add}));
  }
  return jobs;
}

std::vector<Job> chain_jobs(int tasks) {
  std::vector<Job> jobs;
  for (int i = 0; i < tasks; ++i) {
    std::vector<int> parents;
    if (i > 0) parents.push_back(i - 1);
    jobs.push_back(make_job("unit_" + std::to_string(i),
                            "triana.unit" + std::to_string(i % 6), 2, parents));
  }
  return jobs;
}

std::vector<Job> forkjoin_jobs(int tasks) {
  const int width = std::max(1, tasks - 2);
  std::vector<Job> jobs{make_job("split", "triana.split", 1)};
  std::vector<int> workers;
  for (int i = 0; i < width; ++i) {
    workers.push_back(static_cast<int>(jobs.size()));
    jobs.push_back(make_job("worker_" + std::to_string(i), "triana.worker", 6,
                            {0}));
  }
  jobs.push_back(make_job("merge", "triana.merge", 2, workers));
  return jobs;
}

struct Planned {
  std::string kind;
  int size = 0;
  int tasks = 0;  ///< Tasks in the whole tree.
  std::size_t shard = 0;
};

std::size_t shard_of(const Uuid& uuid, int shards) {
  return static_cast<std::size_t>(stampede::common::fnv1a64(uuid.to_string()) %
                                  static_cast<std::uint64_t>(shards));
}

/// Largest tree first onto the shard with the fewest tasks so far.
void assign_shards(std::vector<Planned>& plan, int shards) {
  std::vector<std::size_t> by_size(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    return plan[a].tasks > plan[b].tasks;
  });
  std::vector<std::int64_t> load(static_cast<std::size_t>(shards), 0);
  for (const std::size_t i : by_size) {
    const auto lightest = std::min_element(load.begin(), load.end());
    plan[i].shard = static_cast<std::size_t>(lightest - load.begin());
    *lightest += plan[i].tasks;
  }
}

}  // namespace

std::vector<SizeCount> parse_size_counts(const std::string& text) {
  std::vector<SizeCount> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("size list item '" + item +
                                  "' is not size:count");
    }
    SizeCount sc{std::stoi(item.substr(0, colon)),
                 std::stoi(item.substr(colon + 1))};
    if (sc.size < 1 || sc.count < 0) {
      throw std::invalid_argument("bad size list item '" + item + "'");
    }
    out.push_back(sc);
    pos = comma + 1;
  }
  return out;
}

std::int64_t ts_key(double ts) { return std::llround(ts * 1e6); }

Fleet generate_fleet(const FleetParams& params, std::uint64_t seed) {
  Rng rng{seed};
  stampede::common::UuidGenerator uuids{seed ^ 0x9e3779b97f4a7c15ULL};

  // The size mix is fixed by `params`; the seed shuffles arrival order.
  std::vector<Planned> plan;
  const auto add = [&](const std::vector<SizeCount>& list, const char* kind) {
    for (const auto& sc : list) {
      const int tasks = std::string{kind} == "dart" ? sc.size * params.dart_children : sc.size;
      for (int i = 0; i < sc.count; ++i) plan.push_back({kind, sc.size, tasks});
    }
  };
  add(params.montage, "montage");
  add(params.triana_chain, "chain");
  add(params.triana_forkjoin, "forkjoin");
  add(params.dart_tree, "dart");
  std::shuffle(plan.begin(), plan.end(), rng.engine());
  const int shards = std::max(1, params.shards);
  assign_shards(plan, shards);

  Fleet fleet;
  std::vector<std::vector<Event>> streams;
  double start = 0.0;
  for (const auto& p : plan) {
    Uuid uuid = uuids.next();
    while (shard_of(uuid, shards) != p.shard) uuid = uuids.next();
    fleet.workflows.push_back({uuid, p.kind, p.tasks, true});
    WorkflowEmitter wf{uuid, start, rng, params};
    const std::string label = p.kind + "-" + std::to_string(p.size);
    wf.plan(label, nullptr, nullptr);
    if (p.kind == "dart") {
      // Root: one sub-workflow job per child; each child is a small
      // fork-join (the DART parameter sweep) planned under the root.
      std::vector<Job> jobs;
      for (int c = 0; c < params.dart_children; ++c) {
        jobs.push_back(make_job("subdax_" + std::to_string(c), "dart.sweep", 0));
      }
      wf.describe(jobs, /*with_tasks=*/false, "dag");
      wf.xwf(true, 0.0);
      double root_end = 0.0;
      for (const auto& job : jobs) {
        const double t = rng.uniform(0.5, 3.0);
        const Uuid child_uuid = uuids.next();
        fleet.workflows.push_back({child_uuid, "dart-child", p.size, false});
        LogRecord submit = wf.job_event(ev::kJobInstSubmitStart, job, 1);
        submit.set(attr::kSchedId, "dag-" + job.id);
        wf.emit(t, std::move(submit),
                rows_of({{kJobInstance, 1}, {kJobstate, 1}}), true);
        LogRecord exec = wf.job_event(ev::kJobInstMainStart, job, 1);
        wf.emit(t + 0.5, std::move(exec), rows_of({{kJobstate, 1}}), true);
        // The map names the child first, so it creates the child's row.
        LogRecord map = wf.base(ev::kMapSubwfJob);
        map.set(attr::kSubwfId, child_uuid);
        map.set(attr::kJobId, job.id);
        map.set(attr::kJobInstId, std::int64_t{1});
        wf.emit(t + 0.5, std::move(map), rows_of({{kWorkflow, 1}}));

        WorkflowEmitter child{child_uuid, start + t + 1.0, rng, params};
        child.plan(label + "-" + job.id, &uuid, &uuid, /*stub_exists=*/true);
        const auto child_jobs = forkjoin_jobs(p.size);
        child.describe(child_jobs, /*with_tasks=*/true, "compute");
        child.xwf(true, 0.0);
        const double child_end = child.run_dag(child_jobs, 0.5, false, true);
        child.xwf(false, child_end + 0.5);
        streams.push_back(child.take());

        const double done = t + 1.0 + child_end + 1.0;
        LogRecord end = wf.job_event(ev::kJobInstMainEnd, job, 1);
        end.set(attr::kExitcode, std::int64_t{0});
        wf.emit(done, std::move(end), rows_of({{kJobstate, 1}}), true);
        root_end = std::max(root_end, done);
      }
      wf.xwf(false, root_end + 1.0);
    } else {
      const bool pegasus = p.kind == "montage";
      const auto jobs = pegasus          ? montage_jobs(p.size)
                        : p.kind == "chain" ? chain_jobs(p.size)
                                            : forkjoin_jobs(p.size);
      wf.describe(jobs, /*with_tasks=*/pegasus, "compute");
      wf.xwf(true, 0.0);
      const double end = wf.run_dag(jobs, 0.5, pegasus, pegasus);
      wf.xwf(false, end + 1.0);
    }
    streams.push_back(wf.take());
    start += params.stagger_s * rng.uniform(0.5, 1.5);
  }

  // Interleave by virtual time; ties keep workflow, then emission, order.
  struct Ref {
    double vt;
    std::size_t stream;
    std::size_t index;
  };
  std::vector<Ref> order;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    auto& events = streams[s];
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.vt < b.vt; });
    for (std::size_t i = 0; i < events.size(); ++i) {
      order.push_back({events[i].vt, s, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.vt != b.vt) return a.vt < b.vt;
    if (a.stream != b.stream) return a.stream < b.stream;
    return a.index < b.index;
  });

  // Distinct microsecond timestamps, strictly increasing in send order.
  fleet.lines.reserve(order.size());
  fleet.ts.reserve(order.size());
  fleet.writes_state_row.reserve(order.size());
  fleet.row_deltas.reserve(order.size());
  std::int64_t last_us = 0;
  std::set<std::string> hosts_seen;  // A host row per (workflow, hostname).
  for (const auto& ref : order) {
    Event& e = streams[ref.stream][ref.index];
    if (e.record.event() == ev::kJobInstHostInfo) {
      const std::string key = std::string{*e.record.get(attr::kXwfId)} + "/" +
                              std::string{*e.record.get(attr::kHostname)};
      if (hosts_seen.insert(key).second) e.rows[kHost] = 1;
    }
    const std::int64_t us =
        std::max(ts_key(kEpoch + e.vt), last_us + 1);
    last_us = us;
    const double ts = static_cast<double>(us) / 1e6;
    e.record.set_ts(ts);
    fleet.lines.push_back(stampede::nl::format_record(
        e.record, stampede::nl::TsFormat::kEpochSeconds));
    fleet.ts.push_back(ts);
    fleet.writes_state_row.push_back(e.state_row);
    fleet.row_deltas.push_back(e.rows);
  }
  return fleet;
}

void append_fleet(Fleet& earlier, Fleet later) {
  const auto move_all = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  move_all(earlier.lines, later.lines);
  move_all(earlier.row_deltas, later.row_deltas);
  move_all(earlier.workflows, later.workflows);
  earlier.writes_state_row.insert(earlier.writes_state_row.end(),
                                  later.writes_state_row.begin(),
                                  later.writes_state_row.end());
  move_all(earlier.ts, later.ts);
}

std::map<std::string, std::int64_t> expected_rows(const Fleet& fleet,
                                                  std::size_t begin,
                                                  std::size_t end) {
  std::array<std::int64_t, kTables.size()> sums{};
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t t = 0; t < kTables.size(); ++t) {
      sums[t] += fleet.row_deltas[i][t];
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t t = 0; t < kTables.size(); ++t) out[kTables[t]] = sums[t];
  return out;
}

}  // namespace pipebench
