#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <variant>

#include "bus/broker.hpp"
#include "bus/message.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/shard_map.hpp"
#include "db/compactor.hpp"
#include "db/query.hpp"
#include "db/sharded_database.hpp"
#include "fleet.hpp"
#include "loader/event_sink.hpp"
#include "loader/nl_load.hpp"
#include "loader/sharded_loader.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "netlogger/parser.hpp"
#include "orm/stampede_tables.hpp"
#include "query/analyzer.hpp"
#include "query/continuous_views.hpp"
#include "query/query_interface.hpp"
#include "query/statistics.hpp"
#include "yang/validator.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using namespace stampede;

/// The system runs two loader lanes (two shards) in every workload.
constexpr std::size_t kShards = 2;
/// Replay workloads repeat at least this often, then until the run's
/// seconds are spent.
constexpr std::size_t kMinReps = 3;
/// Start-ups per run whose median is setup_s.
constexpr int kSetupRepeats = 5;

double ms(double seconds) { return seconds * 1e3; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Fleet recipe; `prefix` selects an alternative mix (e.g. "history_")
/// whose size lists fall back to the main ones.
FleetParams fleet_params(const Params& p, const std::string& prefix = "") {
  const auto mix = [&](const std::string& key) {
    return parse_size_counts(p.has(prefix + key) ? p.str(prefix + key) : p.str(key));
  };
  FleetParams f;
  f.montage = mix("montage");
  f.triana_chain = mix("chain");
  f.triana_forkjoin = mix("forkjoin");
  f.dart_tree = mix("dart");
  f.dart_children = static_cast<int>(p.num("dart_children"));
  f.failure_prob = p.num("failure_prob");
  f.max_retries = static_cast<int>(p.num("max_retries"));
  f.stagger_s = p.num("stagger_s");
  f.shards = static_cast<int>(kShards);
  return f;
}

nl::LogRecord parse_or_throw(const std::string& line) {
  nl::ParseResult parsed = nl::parse_line(line);
  if (auto* record = std::get_if<nl::LogRecord>(&parsed)) return std::move(*record);
  throw std::runtime_error("generated line does not parse: " + line);
}

std::uint64_t wal_bytes(const std::string& base, std::size_t shards) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    std::error_code ec;
    const auto size =
        fs::file_size(db::ShardedDatabase::shard_wal_path(base, i, shards), ec);
    if (!ec) total += size;
  }
  return total;
}

void copy_wals(const std::string& from, const std::string& to, std::size_t shards) {
  for (std::size_t i = 0; i < shards; ++i) {
    fs::copy_file(db::ShardedDatabase::shard_wal_path(from, i, shards),
                  db::ShardedDatabase::shard_wal_path(to, i, shards),
                  fs::copy_options::overwrite_existing);
  }
}

/// The history a restarted loader finds on disk: a whole earlier fleet
/// of the same recipe (its own seed), followed by `fleet`. Lines before
/// the returned split are the history.
std::size_t prepend_history(const Params& p, std::uint64_t seed, Fleet& fleet) {
  Fleet history = generate_fleet(fleet_params(p, "history_"), seed ^ 0x5bd1e995ULL);
  const std::size_t split = history.lines.size();
  append_fleet(history, std::move(fleet));
  fleet = std::move(history);
  return split;
}

/// Loads lines [0, end) into a fresh WAL-backed archive at `base`, in a
/// child process: the archive is what an earlier loader process left on
/// disk, so writing it leaves no mark on this process's peak_rss_mb.
/// Call only while this process runs no other thread (before set-up).
void write_archive(const std::string& base, const Fleet& fleet, std::size_t end) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed while writing the archive");
  if (pid == 0) {
    int status = 0;
    try {
      auto archive = orm::open_sharded_archive(base, kShards);
      loader::ShardedLoader loader{*archive};
      for (std::size_t i = 0; i < end; ++i) loader.process(parse_or_throw(fleet.lines[i]));
      loader.finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipebench: writing the archive failed: %s\n", e.what());
      status = 1;
    }
    std::_Exit(status);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the process writing the archive failed");
  }
}

void check_rows(Result& result, const std::map<std::string, std::int64_t>& expected,
                const std::function<std::int64_t(const std::string&)>& count,
                const std::string& where) {
  for (const auto& [table, rows] : expected) {
    const std::int64_t got = count(table);
    result.check(got == rows, where + ": table " + table + " holds " +
                                  std::to_string(got) + " rows, expected " +
                                  std::to_string(rows));
  }
}

/// Events not loaded: invalid, unknown or dropped ones, and any event
/// the loader saw but did not apply.
void check_loader(Result& result, const loader::LoaderStats& stats,
                  std::uint64_t sent, const std::string& where) {
  const std::uint64_t bad =
      stats.events_invalid + stats.events_unknown + stats.events_dropped;
  const std::uint64_t missing = sent > stats.events_loaded ? sent - stats.events_loaded : 0;
  result.operations(sent, std::max(bad, missing), where + " events not loaded");
}

/// Ack-after-commit stamps, one slot per ack tag (1-based).
class AckBook {
 public:
  explicit AckBook(std::size_t events)
      : stamps_(new std::atomic<std::int64_t>[events + 1]), size_(events + 1) {
    for (std::size_t i = 0; i < size_; ++i) stamps_[i].store(0, std::memory_order_relaxed);
  }

  void mark(std::uint64_t tag) {
    if (tag == 0 || tag >= size_) {
      stray_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::int64_t expected = 0;
    if (!stamps_[tag].compare_exchange_strong(expected, now_ns(),
                                              std::memory_order_acq_rel)) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
    }
    acked_.fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] std::int64_t at(std::uint64_t tag) const {
    return stamps_[tag].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t acked() const { return acked_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint64_t anomalies() const {
    return stray_.load(std::memory_order_relaxed) +
           duplicates_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::atomic<std::int64_t>[]> stamps_;
  std::size_t size_;
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> stray_{0};
  std::atomic<std::uint64_t> duplicates_{0};
};

/// One closed-loop replay of lines [begin, end) into an EventSink.
struct ReplayRun {
  std::uint64_t events = 0;
  std::uint64_t parse_errors = 0;
  double wall_s = 0.0;       ///< First send through the end of finish().
  double cpu_s = 0.0;        ///< Process CPU over the same region.
  double drain_s = 0.0;      ///< Inside finish().
  double dispatcher_cpu_s = 0.0;
  std::vector<double> ack_ms;  ///< Dispatch -> ack-after-commit, per event.
  std::uint64_t unacked = 0;
  std::uint64_t ack_anomalies = 0;
  // Traced only.
  double parse_s = 0.0;
  double process_cpu_s = 0.0;   ///< Thread CPU inside process().
  double process_wall_s = 0.0;  ///< Wall inside process().
  std::vector<double> queue_to_commit_ms;  ///< process() return -> ack.
};

ReplayRun replay(loader::EventSink& sink, const Fleet& fleet, std::size_t begin,
                 std::size_t end, bool traced, SpanLog& spans) {
  ReplayRun run;
  const std::size_t n = end - begin;
  // Shared with the callback: a sink may still be releasing acks when
  // finish() returns (the cluster Router calls back after it drains).
  const auto acks = std::make_shared<AckBook>(n);
  sink.set_ack_callback([acks](std::uint64_t tag) { acks->mark(tag); });
  std::vector<std::int64_t> sent(n + 1, 0);
  std::vector<std::int64_t> returned(traced ? n + 1 : 0, 0);

  const double cpu0 = process_cpu_s();
  const double thread0 = thread_cpu_s();
  const auto t0 = Clock::now();
  {
    ScopedSpan span{spans, "loader.dispatch"};
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t tag = i - begin + 1;
      if (traced) {
        const std::int64_t a = now_ns();
        nl::ParseResult parsed = nl::parse_line(fleet.lines[i]);
        const std::int64_t b = now_ns();
        run.parse_s += static_cast<double>(b - a) * 1e-9;
        auto* record = std::get_if<nl::LogRecord>(&parsed);
        if (record == nullptr) {
          ++run.parse_errors;
          continue;
        }
        const double c0 = thread_cpu_s();
        sent[tag] = now_ns();
        sink.process(*record, nullptr, false, tag);
        returned[tag] = now_ns();
        run.process_cpu_s += thread_cpu_s() - c0;
        run.process_wall_s += static_cast<double>(returned[tag] - sent[tag]) * 1e-9;
      } else {
        nl::ParseResult parsed = nl::parse_line(fleet.lines[i]);
        auto* record = std::get_if<nl::LogRecord>(&parsed);
        if (record == nullptr) {
          ++run.parse_errors;
          continue;
        }
        sent[tag] = now_ns();
        sink.process(*record, nullptr, false, tag);
      }
      ++run.events;
    }
  }
  const auto t_finish = Clock::now();
  {
    ScopedSpan span{spans, "loader.finish"};
    sink.finish();
  }
  const auto t1 = Clock::now();
  // Collect the acks released after finish() returned (not timed).
  const auto ack_deadline = Clock::now() + std::chrono::seconds(10);
  while (acks->acked() < run.events && Clock::now() < ack_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.wall_s = seconds_between(t0, t1);
  run.drain_s = seconds_between(t_finish, t1);
  run.cpu_s = process_cpu_s() - cpu0;
  run.dispatcher_cpu_s = thread_cpu_s() - thread0;

  run.ack_ms.reserve(n);
  for (std::uint64_t tag = 1; tag <= n; ++tag) {
    const std::int64_t acked = acks->at(tag);
    if (sent[tag] == 0) continue;
    if (acked == 0) {
      ++run.unacked;
      continue;
    }
    run.ack_ms.push_back(static_cast<double>(acked - sent[tag]) * 1e-6);
    if (traced) {
      run.queue_to_commit_ms.push_back(static_cast<double>(acked - returned[tag]) * 1e-6);
    }
  }
  run.ack_anomalies = acks->anomalies();
  return run;
}

/// Isolated pass of the YANG validator over the workload's own records.
double validate_ns_per_event(const Fleet& fleet, std::size_t begin, std::size_t end,
                             SpanLog& spans) {
  std::vector<nl::LogRecord> records;
  records.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) records.push_back(parse_or_throw(fleet.lines[i]));
  const auto& schema = yang::stampede_schema();
  ScopedSpan span{spans, "yang.validate"};
  std::size_t errors = 0;
  const auto t0 = Clock::now();
  for (const auto& r : records) errors += schema.validate(r).ok() ? 0 : 1;
  const double s = seconds_between(t0, Clock::now());
  if (errors != 0) throw std::runtime_error("generated records fail validation");
  return records.empty() ? 0.0 : s * 1e9 / static_cast<double>(records.size());
}

double parse_ns_per_event(const Fleet& fleet, std::size_t begin, std::size_t end,
                          SpanLog& spans) {
  ScopedSpan span{spans, "netlogger.parse"};
  std::size_t ok = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    ok += std::holds_alternative<nl::LogRecord>(nl::parse_line(fleet.lines[i])) ? 1 : 0;
  }
  const double s = seconds_between(t0, Clock::now());
  if (ok != end - begin) throw std::runtime_error("generated lines fail to parse");
  return end > begin ? s * 1e9 / static_cast<double>(end - begin) : 0.0;
}

/// The ORM flushes of the lanes (in-process shard hosts count into the
/// same registry) and, with `shard_commits`, the commits of a local
/// ShardedDatabase (shard hosts do not time theirs).
void report_write_layers(Result& r, const RegistryDelta& d, bool shard_commits) {
  const double batches = d.counter("stampede_orm_flush_batches_total");
  r.metric("orm.ops_per_flush",
           batches > 0 ? d.counter("stampede_orm_flushed_ops_total") / batches : 0.0,
           "ops", static_cast<std::size_t>(batches));
  const auto flush = d.histogram("stampede_orm_flush_latency_seconds");
  r.metric("orm.flush_ms_total", ms(flush.sum), "ms", flush.count);
  if (!shard_commits) return;
  const auto commit = d.histogram("stampede_shard_commit_latency_seconds");
  r.metric("db.commit_ms_p50", ms(commit.quantile(0.5)), "ms", commit.count);
}

/// Loader counts of events not loaded cleanly, over `events` events.
void report_loader_counts(Result& r, const loader::LoaderStats& s, std::size_t events) {
  r.metric("loader.events_invalid", static_cast<double>(s.events_invalid), "count", events);
  r.metric("loader.events_unknown", static_cast<double>(s.events_unknown), "count", events);
  r.metric("loader.events_deferred", static_cast<double>(s.events_deferred), "count", events);
  r.metric("loader.events_dropped", static_cast<double>(s.events_dropped), "count", events);
  r.metric("loader.replay_deduped", static_cast<double>(s.replay_deduped), "count", events);
}

/// Shared shape of fleet_replay and cluster_replay: generate the fleet
/// and the history archive, then repeat (set up, replay, check, tear
/// down) until the run's seconds are spent.
struct ReplayPlan {
  Fleet fleet;
  std::size_t split = 0;  ///< Lines [0, split) are already archived.
  std::string history_base;
  std::map<std::string, std::int64_t> expected;  ///< Whole-fleet rows.
};

ReplayPlan plan_replay(RunContext& ctx) {
  ReplayPlan plan;
  {
    ScopedSpan span{*ctx.spans, "generate"};
    plan.fleet = generate_fleet(fleet_params(ctx.params), ctx.seed);
    plan.split = prepend_history(ctx.params, ctx.seed, plan.fleet);
  }
  plan.expected = expected_rows(plan.fleet, 0, plan.fleet.lines.size());
  plan.history_base = (fs::path{ctx.work_dir} / "history" / "archive.db").string();
  fs::create_directories(fs::path{plan.history_base}.parent_path());
  {
    ScopedSpan span{*ctx.spans, "history_archive"};
    write_archive(plan.history_base, plan.fleet, plan.split);
  }
  Result& r = *ctx.result;
  r.meta("fleet_lines", std::to_string(plan.fleet.lines.size()));
  r.meta("fleet_workflows", std::to_string(plan.fleet.workflows.size()));
  r.meta("history_lines", std::to_string(plan.split));
  r.meta("replayed_lines", std::to_string(plan.fleet.lines.size() - plan.split));
  return plan;
}

/// Per-rep figures the replay workloads reduce to medians.
struct RepFigures {
  std::vector<double> setup_s, rate, cpu_us, bytes_per_event, drain_ms;
  std::vector<double> heap_mb, peak_mb;  ///< After each rep's teardown.
  std::vector<double> ack_ms;  ///< Pooled over reps.
  std::size_t reps = 0;
};

void report_replay_end_to_end(Result& r, RepFigures& f) {
  r.metric("setup_s", median(f.setup_s), "s", f.setup_s.size());
  r.metric("throughput_per_s", median(f.rate), "1/s", f.rate.size());
  r.metric("cpu_us_per_op", median(f.cpu_us), "us", f.cpu_us.size());
  r.percentile_metric("latency_ms_p50", percentile(f.ack_ms, 0.50), "ms");
  r.percentile_metric("latency_ms_p90", percentile(f.ack_ms, 0.90), "ms");
  // The peak of the first rep: one process recovering the archive and
  // loading the log once, as nl_load does. Later reps in the same
  // process only add allocator fragmentation.
  r.metric("peak_rss_mb", f.peak_mb.empty() ? peak_rss_mib() : f.peak_mb.front(), "MiB", 1);
  r.meta("reps", std::to_string(f.reps));
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (const double v : values) out += (out.size() > 1 ? ", " : "") + std::to_string(v);
    return out + "]";
  };
  r.meta("rep_throughput_per_s", list(f.rate));
  r.meta("rep_cpu_us_per_op", list(f.cpu_us));
  r.meta("rep_setup_s", list(f.setup_s));
  r.meta("rep_heap_mb", list(f.heap_mb));
  r.meta("rep_peak_rss_mb", list(f.peak_mb));
}

bool keep_going(const RunContext& ctx, Clock::time_point start, std::size_t reps) {
  return reps < kMinReps || seconds_between(start, Clock::now()) < ctx.seconds;
}

// ---------------------------------------------------------------------------
// live_monitor helpers

/// Wraps the loader the QueuePump drives: records each event's arrival
/// and its ack-after-commit, keyed by the generator's sequence number.
class TimingSink final : public loader::EventSink {
 public:
  TimingSink(loader::EventSink& inner,
             const std::unordered_map<std::int64_t, std::uint32_t>& seq_of_ts,
             std::size_t events, bool traced)
      : inner_(&inner), seq_of_ts_(&seq_of_ts), arrived_(events, 0),
        acked_(new std::atomic<std::int64_t>[events]), events_(events), traced_(traced) {
    for (std::size_t i = 0; i < events; ++i) acked_[i].store(0, std::memory_order_relaxed);
  }

  bool process(const nl::LogRecord& record, const telemetry::TraceStamps* trace,
               bool redelivered, std::uint64_t ack_tag) override {
    const std::int64_t t = now_ns();
    const auto it = seq_of_ts_->find(ts_key(record.ts()));
    if (it != seq_of_ts_->end() && it->second < events_) {
      arrived_[it->second] = t;
      const std::scoped_lock lock{mutex_};
      seq_of_tag_[ack_tag] = it->second;
    } else {
      ++unmatched_;
    }
    if (redelivered) ++redelivered_;
    if (!traced_) return inner_->process(record, trace, redelivered, ack_tag);
    const double c0 = thread_cpu_s();
    const bool ok = inner_->process(record, trace, redelivered, ack_tag);
    process_cpu_s_ += thread_cpu_s() - c0;
    process_wall_s_ += static_cast<double>(now_ns() - t) * 1e-9;
    return ok;
  }

  void set_ack_callback(std::function<void(std::uint64_t)> cb) override {
    forward_ = std::move(cb);
    inner_->set_ack_callback([this](std::uint64_t tag) {
      const std::int64_t t = now_ns();
      {
        const std::scoped_lock lock{mutex_};
        const auto it = seq_of_tag_.find(tag);
        if (it != seq_of_tag_.end()) {
          acked_[it->second].store(t, std::memory_order_release);
          seq_of_tag_.erase(it);
        }
      }
      acked_count_.fetch_add(1, std::memory_order_release);
      if (forward_) forward_(tag);
    });
  }

  void flush_hint() override { inner_->flush_hint(); }
  void finish() override { inner_->finish(); }

  [[nodiscard]] std::int64_t arrived(std::size_t seq) const { return arrived_[seq]; }
  [[nodiscard]] std::int64_t acked(std::size_t seq) const {
    return acked_[seq].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t acked_count() const {
    return acked_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t unmatched() const { return unmatched_; }
  [[nodiscard]] std::uint64_t redelivered() const { return redelivered_; }
  [[nodiscard]] double process_cpu_s() const { return process_cpu_s_; }
  [[nodiscard]] double process_wall_s() const { return process_wall_s_; }

 private:
  loader::EventSink* inner_;
  const std::unordered_map<std::int64_t, std::uint32_t>* seq_of_ts_;
  std::vector<std::int64_t> arrived_;  ///< Pump thread only.
  std::unique_ptr<std::atomic<std::int64_t>[]> acked_;
  std::size_t events_;
  bool traced_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::uint32_t> seq_of_tag_;
  std::function<void(std::uint64_t)> forward_;
  std::atomic<std::uint64_t> acked_count_{0};
  std::uint64_t unmatched_ = 0;
  std::uint64_t redelivered_ = 0;
  double process_cpu_s_ = 0.0;
  double process_wall_s_ = 0.0;
};

/// The dashboard views the live workload maintains. The two feeds are
/// plain projections of the state tables: every committed state row
/// appears in them, so an update names the exact event it reflects.
struct LiveViews {
  std::vector<std::pair<std::uint64_t, db::Select>> all;
  std::uint64_t job_feed = 0;
  std::uint64_t wf_feed = 0;
};

LiveViews register_live_views(query::ContinuousQueryEngine& engine) {
  LiveViews v;
  const auto add = [&](db::Select select, const char* name) {
    const std::uint64_t id = engine.register_view(select, {.name = name});
    v.all.emplace_back(id, std::move(select));
    return id;
  };
  add(db::Select{"jobstate"}.group_by({"state"}).count_all("n"), "jobs-by-state");
  add(db::Select{"workflowstate"}.group_by({"state"}).count_all("n"),
      "workflows-by-state");
  add(db::Select{"invocation"}
          .group_by({"transformation"})
          .count_all("n")
          .agg(db::AggFn::kAvg, "remote_duration", "mean_s")
          .agg(db::AggFn::kMax, "remote_duration", "max_s"),
      "runtime-by-transformation");
  v.job_feed = add(db::Select{"jobstate"}.columns({"timestamp"}), "job-feed");
  v.wf_feed = add(db::Select{"workflowstate"}.columns({"timestamp"}), "workflow-feed");
  return v;
}

/// The `nl_load_cli --listen` deployment over a recovered archive.
struct LiveSystem {
  std::unique_ptr<db::ShardedDatabase> archive;
  std::unique_ptr<query::ContinuousQueryEngine> engine;
  LiveViews views;
  std::unique_ptr<loader::ShardedLoader> loader;
  std::unique_ptr<bus::Broker> broker;
  std::unique_ptr<net::BusServer> server;
  std::unique_ptr<net::BusClient> client;
  std::unique_ptr<TimingSink> sink;
  std::unique_ptr<loader::QueuePump> pump;

  ~LiveSystem() {
    // Release every pending ack while its whole callback chain (timing
    // sink -> pump -> broker) is alive: stopping the pump finishes the
    // loader through the sink; finishing the loader again is a no-op
    // then, and covers a system whose pump never started. Only then
    // tear down, consumers before what they consume from.
    if (pump) pump->stop();
    if (loader) loader->finish();
    pump.reset();
    sink.reset();
    loader.reset();
    client.reset();
    server.reset();
    broker.reset();
    engine.reset();
    archive.reset();
  }
};

std::unique_ptr<LiveSystem> start_live(const std::string& base,
                                       const std::unordered_map<std::int64_t, std::uint32_t>& seq_of_ts,
                                       std::size_t events, bool traced, SpanLog& spans,
                                       double* recover_s) {
  auto sys = std::make_unique<LiveSystem>();
  {
    ScopedSpan span{spans, "db.recover"};
    const auto t0 = Clock::now();
    sys->archive = orm::open_sharded_archive(base, kShards);
    *recover_s = seconds_between(t0, Clock::now());
  }
  {
    ScopedSpan span{spans, "view.register"};
    sys->engine = std::make_unique<query::ContinuousQueryEngine>(*sys->archive);
    sys->views = register_live_views(*sys->engine);
  }
  sys->loader = std::make_unique<loader::ShardedLoader>(*sys->archive);
  sys->broker = std::make_unique<bus::Broker>();
  sys->broker->declare_exchange("monitoring", bus::ExchangeType::kTopic);
  sys->broker->declare_queue("stampede");
  sys->broker->bind("stampede", "monitoring", "stampede.#");
  {
    ScopedSpan span{spans, "net.connect"};
    sys->server = std::make_unique<net::BusServer>(*sys->broker, net::BusServerOptions{});
    sys->server->start();
    net::BusClientOptions copts;
    copts.port = sys->server->port();
    sys->client = std::make_unique<net::BusClient>(copts);
    if (!sys->client->wait_connected(10'000)) {
      throw std::runtime_error("bus client could not connect");
    }
  }
  sys->sink = std::make_unique<TimingSink>(*sys->loader, seq_of_ts, events, traced);
  sys->pump = std::make_unique<loader::QueuePump>(*sys->broker, "stampede", *sys->sink);
  sys->pump->start();
  return sys;
}

// ---------------------------------------------------------------------------
// dashboard_read helpers

/// The nine deciles of `samples` as a JSON list (metadata only).
std::string deciles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  std::string out = "[";
  for (std::size_t d = 1; d < 10 && !samples.empty(); ++d) {
    out += (d > 1 ? ", " : "") + std::to_string(samples[samples.size() * d / 10]);
  }
  return out + "]";
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string render_rows(const db::ResultSet& rs) {
  std::string out;
  for (const auto& c : rs.columns) out += c + "|";
  for (const auto& row : rs.rows) {
    out += "\n";
    for (const auto& v : row) out += v.to_string() + "|";
  }
  return out;
}

}  // namespace

std::string Params::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("parameter " + key + " is not set");
  return it->second;
}

double Params::num(const std::string& key) const {
  const std::string text = str(key);
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument("parameter " + key + " is not a number: " + text);
  }
  return v;
}

// ---------------------------------------------------------------------------

void run_fleet_replay(RunContext& ctx) {
  Result& r = *ctx.result;
  SpanLog& spans = *ctx.spans;
  ReplayPlan plan = plan_replay(ctx);
  const std::size_t n = plan.fleet.lines.size();
  const double events = static_cast<double>(n - plan.split);

  RepFigures untraced;
  RepFigures traced;
  std::vector<double> recover_s, lane_skew;
  ReplayRun last_traced;
  loader::LoaderStats last_stats;
  double process_cpu = 0, process_wall = 0, lane_cpu = 0, parse = 0, traced_events = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0; keep_going(ctx, start, rep); ++rep) {
    // Traced runs alternate traced and untraced reps: the difference is
    // the tracing overhead.
    const bool trace_rep = ctx.trace && rep % 2 == 1;
    RepFigures& fig = trace_rep ? traced : untraced;
    ScopedSpan rep_span{spans, trace_rep ? "rep.traced" : "rep"};
    const std::string base =
        (fs::path{ctx.work_dir} / ("rep" + std::to_string(rep)) / "archive.db").string();
    fs::create_directories(fs::path{base}.parent_path());
    copy_wals(plan.history_base, base, kShards);
    const std::uint64_t bytes0 = wal_bytes(base, kShards);

    const auto s0 = Clock::now();
    std::unique_ptr<db::ShardedDatabase> archive;
    {
      ScopedSpan span{spans, "db.recover"};
      archive = orm::open_sharded_archive(base, kShards);
    }
    const auto s1 = Clock::now();
    auto loader = std::make_unique<loader::ShardedLoader>(*archive);
    fig.setup_s.push_back(seconds_between(s0, Clock::now()));
    recover_s.push_back(seconds_between(s0, s1));

    const auto before = RegistrySnapshot::take();
    ReplayRun run = replay(*loader, plan.fleet, plan.split, n, trace_rep, spans);
    const auto after = RegistrySnapshot::take();
    fig.rate.push_back(static_cast<double>(run.events) / run.wall_s);
    fig.cpu_us.push_back(run.cpu_s * 1e6 / static_cast<double>(run.events));
    fig.bytes_per_event.push_back(
        static_cast<double>(wal_bytes(base, kShards) - bytes0) / events);
    fig.drain_ms.push_back(ms(run.drain_s));
    fig.ack_ms.insert(fig.ack_ms.end(), run.ack_ms.begin(), run.ack_ms.end());
    ++fig.reps;

    const loader::LoaderStats stats = loader->stats();
    {
      ScopedSpan span{spans, "check"};
      check_loader(r, stats, run.events, "fleet_replay");
      r.operations(run.events + run.parse_errors, run.parse_errors + run.unacked,
                   "fleet_replay events parsed and acked");
      r.check(run.ack_anomalies == 0, "fleet_replay: stray or duplicate acks");
      check_rows(r, plan.expected,
                 [&](const std::string& t) {
                   return static_cast<std::int64_t>(archive->row_count(t));
                 },
                 "fleet_replay");
    }
    if (trace_rep) {
      std::uint64_t max_seen = 0, sum_seen = 0;
      for (std::size_t i = 0; i < loader->lane_count(); ++i) {
        max_seen = std::max(max_seen, loader->lane_stats(i).events_seen);
        sum_seen += loader->lane_stats(i).events_seen;
      }
      lane_skew.push_back(static_cast<double>(max_seen) * static_cast<double>(loader->lane_count()) /
                          static_cast<double>(std::max<std::uint64_t>(sum_seen, 1)));
      process_cpu += run.process_cpu_s;
      process_wall += run.process_wall_s;
      lane_cpu += run.cpu_s - run.dispatcher_cpu_s;
      parse += run.parse_s;
      traced_events += static_cast<double>(run.events);
      report_write_layers(r, RegistryDelta{before, after}, /*shard_commits=*/true);
      last_traced = std::move(run);
      last_stats = stats;
    }
    loader.reset();
    archive.reset();
    fs::remove_all(fs::path{base}.parent_path());
    fig.heap_mb.push_back(heap_in_use_mib());
    fig.peak_mb.push_back(peak_rss_mib());
  }

  if (!ctx.trace) {
    report_replay_end_to_end(r, untraced);
    return;
  }
  const double te = std::max(traced_events, 1.0);
  r.metric("netlogger.parse_ns_per_event", parse * 1e9 / te, "ns", traced.reps);
  r.metric("yang.validate_ns_per_event",
           validate_ns_per_event(plan.fleet, plan.split, n, spans), "ns", n - plan.split);
  r.metric("loader.dispatch_cpu_ns_per_event", process_cpu * 1e9 / te, "ns", traced.reps);
  r.metric("loader.backpressure_wait_ns_per_event",
           std::max(0.0, process_wall - process_cpu) * 1e9 / te, "ns", traced.reps);
  r.metric("loader.drain_ms", median(traced.drain_ms), "ms", traced.drain_ms.size());
  r.metric("loader.lane_cpu_us_per_event", lane_cpu * 1e6 / te, "us", traced.reps);
  r.metric("loader.lane_skew", median(lane_skew), "ratio", lane_skew.size());
  r.percentile_metric("loader.queue_to_commit_ms_p50",
                      percentile(last_traced.queue_to_commit_ms, 0.5), "ms");
  r.percentile_metric("loader.ack_ms_p50", percentile(traced.ack_ms, 0.5), "ms");
  r.percentile_metric("loader.ack_ms_p99", percentile(traced.ack_ms, 0.99), "ms");
  report_loader_counts(r, last_stats, last_traced.events);
  r.metric("db.wal_bytes_per_event", median(traced.bytes_per_event), "B",
           traced.bytes_per_event.size());
  r.metric("db.recover_s", median(recover_s), "s", recover_s.size());
  const double untraced_rate = median(untraced.rate);
  const double traced_rate = median(traced.rate);
  r.metric("bench.tracing_overhead_pct",
           traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0, "%",
           traced.reps + untraced.reps);
}

void run_cluster_replay(RunContext& ctx) {
  Result& r = *ctx.result;
  SpanLog& spans = *ctx.spans;
  ReplayPlan plan = plan_replay(ctx);
  const std::size_t n = plan.fleet.lines.size();
  const double events = static_cast<double>(n - plan.split);

  // With replicate=1 each primary ships its WAL to a follower and acks
  // only what the follower made durable (semi-sync replication).
  const bool replicate = ctx.params.num("replicate") != 0;
  r.meta("replicate", replicate ? "true" : "false");

  RepFigures fig;
  std::vector<double> repl_bytes, stalls, apply_batch, process_wait;
  loader::LoaderStats remote_total;
  const auto start = Clock::now();
  for (std::size_t rep = 0; keep_going(ctx, start, rep); ++rep) {
    ScopedSpan rep_span{spans, "rep"};
    const fs::path dir = fs::path{ctx.work_dir} / ("rep" + std::to_string(rep));
    fs::create_directories(dir);
    // Each primary hosts one shard and recovers its part of the history;
    // a follower receives its primary's WAL at start.
    std::vector<std::string> primary_base, follower_base;
    for (std::size_t i = 0; i < kShards; ++i) {
      primary_base.push_back((dir / ("host" + std::to_string(i) + ".db")).string());
      follower_base.push_back((dir / ("follower" + std::to_string(i) + ".db")).string());
      fs::copy_file(db::ShardedDatabase::shard_wal_path(plan.history_base, i, kShards),
                    db::ShardedDatabase::shard_wal_path(primary_base[i], i, kShards));
    }
    const auto all_bytes = [&] {
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < kShards; ++i) {
        for (const auto* base : {&primary_base[i], &follower_base[i]}) {
          std::error_code ec;
          const auto size = fs::file_size(
              db::ShardedDatabase::shard_wal_path(*base, i, kShards), ec);
          if (!ec) total += size;
        }
      }
      return total;
    };

    const auto s0 = Clock::now();
    std::vector<std::unique_ptr<cluster::ShardHost>> hosts;
    std::string spec;
    {
      ScopedSpan span{spans, "cluster.start"};
      for (std::size_t i = 0; i < kShards; ++i) {
        cluster::ShardHostOptions po;
        po.wal_base = primary_base[i];
        po.shards = {i};
        po.total_shards = kShards;
        std::string follower;
        if (replicate) {
          cluster::ShardHostOptions fo;
          fo.wal_base = follower_base[i];
          fo.total_shards = kShards;
          fo.follower = true;
          hosts.push_back(std::make_unique<cluster::ShardHost>(fo));
          hosts.back()->start();
          const int follower_port = hosts.back()->port();
          po.follower_addr = cluster::HostAddr{"127.0.0.1", follower_port};
          follower = "/127.0.0.1:" + std::to_string(follower_port);
        }
        hosts.push_back(std::make_unique<cluster::ShardHost>(po));
        hosts.back()->start();
        if (!spec.empty()) spec += ";";
        spec += std::to_string(i) + "@127.0.0.1:" + std::to_string(hosts.back()->port()) +
                follower;
      }
    }
    auto router = std::make_unique<cluster::Router>(cluster::ShardMap::parse(spec));
    fig.setup_s.push_back(seconds_between(s0, Clock::now()));
    const std::uint64_t bytes0 = all_bytes();

    const auto before = RegistrySnapshot::take();
    ReplayRun run = replay(*router, plan.fleet, plan.split, n, ctx.trace, spans);
    const auto after = RegistrySnapshot::take();
    const RegistryDelta delta{before, after};
    fig.rate.push_back(static_cast<double>(run.events) / run.wall_s);
    fig.cpu_us.push_back(run.cpu_s * 1e6 / static_cast<double>(run.events));
    fig.bytes_per_event.push_back(static_cast<double>(all_bytes() - bytes0) / events);
    fig.drain_ms.push_back(ms(run.drain_s));
    fig.ack_ms.insert(fig.ack_ms.end(), run.ack_ms.begin(), run.ack_ms.end());
    ++fig.reps;
    repl_bytes.push_back(delta.counter("stampede_cluster_replication_bytes_total") / events);
    stalls.push_back(delta.counter("stampede_cluster_replication_stalls_total"));
    const double batches = delta.counter("stampede_cluster_apply_batches_total");
    apply_batch.push_back(batches > 0 ? delta.counter("stampede_cluster_events_routed_total") / batches
                                      : 0.0);
    process_wait.push_back(run.process_wall_s * 1e9 / std::max(1.0, events));

    {
      ScopedSpan span{spans, "check"};
      loader::LoaderStats remote;
      for (std::size_t i = 0; i < kShards; ++i) remote.merge(router->remote_stats(i).loader);
      check_loader(r, remote, run.events, "cluster_replay");
      r.operations(run.events + run.parse_errors, run.parse_errors + run.unacked,
                   "cluster_replay events parsed and acked");
      r.check(run.ack_anomalies == 0, "cluster_replay: stray or duplicate acks");
      // Summed remote row counts must equal what the same seed's fleet
      // puts in a local archive (the rows fleet_replay checks).
      check_rows(r, plan.expected,
                 [&](const std::string& t) {
                   db::Select select{t};
                   select.count_all("n");
                   std::int64_t total = 0;
                   for (std::size_t i = 0; i < kShards; ++i) {
                     total += router->backend().execute_on(i, select).at(0, "n").as_int();
                   }
                   return total;
                 },
                 "cluster_replay");
      if (ctx.trace) report_write_layers(r, delta, /*shard_commits=*/false);
      remote_total = remote;
    }
    router.reset();
    for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) (*it)->stop();
    hosts.clear();
    fs::remove_all(dir);
    fig.heap_mb.push_back(heap_in_use_mib());
    fig.peak_mb.push_back(peak_rss_mib());
  }

  if (!ctx.trace) {
    report_replay_end_to_end(r, fig);
    return;
  }
  r.metric("netlogger.parse_ns_per_event", parse_ns_per_event(plan.fleet, plan.split, n, spans),
           "ns", n - plan.split);
  r.metric("yang.validate_ns_per_event", validate_ns_per_event(plan.fleet, plan.split, n, spans),
           "ns", n - plan.split);
  r.metric("cluster.process_wait_ns_per_event", median(process_wait), "ns", process_wait.size());
  r.metric("cluster.events_per_apply_batch", median(apply_batch), "ratio", apply_batch.size());
  r.metric("cluster.replication_bytes_per_event", median(repl_bytes), "B", repl_bytes.size());
  r.metric("cluster.replication_stalls", median(stalls), "count", stalls.size());
  r.metric("cluster.drain_ms", median(fig.drain_ms), "ms", fig.drain_ms.size());
  r.percentile_metric("loader.ack_ms_p50", percentile(fig.ack_ms, 0.5), "ms");
  r.percentile_metric("loader.ack_ms_p99", percentile(fig.ack_ms, 0.99), "ms");
  r.metric("db.wal_bytes_per_event", median(fig.bytes_per_event), "B",
           fig.bytes_per_event.size());
  report_loader_counts(r, remote_total, n - plan.split);
}

void run_live_monitor(RunContext& ctx) {
  Result& r = *ctx.result;
  SpanLog& spans = *ctx.spans;
  const double rate = ctx.params.num("rate_per_s");
  const std::size_t want = static_cast<std::size_t>(rate * ctx.seconds);

  // Grow the fleet (more copies of the same mix) until it covers the
  // whole open-loop window; the archive holds an earlier fleet.
  Fleet fleet;
  std::size_t split = 0;
  {
    ScopedSpan span{spans, "generate"};
    FleetParams fp = fleet_params(ctx.params);
    for (int copies = 1;; ++copies) {
      FleetParams scaled = fp;
      for (auto* list : {&scaled.montage, &scaled.triana_chain, &scaled.triana_forkjoin,
                         &scaled.dart_tree}) {
        for (auto& sc : *list) sc.count *= copies;
      }
      fleet = generate_fleet(scaled, ctx.seed);
      if (fleet.lines.size() >= want || copies > 64) break;
    }
    split = prepend_history(ctx.params, ctx.seed, fleet);
  }
  const std::size_t events = std::min(want, fleet.lines.size() - split);
  if (events == 0) throw std::runtime_error("live_monitor: nothing to send");
  std::unordered_map<std::int64_t, std::uint32_t> seq_of_ts;
  std::vector<std::string> routing_keys;
  seq_of_ts.reserve(events);
  routing_keys.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    seq_of_ts.emplace(ts_key(fleet.ts[split + i]), static_cast<std::uint32_t>(i));
    routing_keys.push_back(parse_or_throw(fleet.lines[split + i]).event());
  }
  const std::string history_base = (fs::path{ctx.work_dir} / "history" / "archive.db").string();
  fs::create_directories(fs::path{history_base}.parent_path());
  {
    ScopedSpan span{spans, "history_archive"};
    write_archive(history_base, fleet, split);
  }
  r.meta("fleet_lines", std::to_string(fleet.lines.size()));
  r.meta("fleet_workflows", std::to_string(fleet.workflows.size()));
  r.meta("history_lines", std::to_string(split));
  r.meta("live_events", std::to_string(events));
  r.meta("live_rate_per_s", std::to_string(rate));

  // Visibility: the first feed update carrying an event's own state row.
  // Declared before the system so that it outlives the view callbacks.
  std::vector<std::atomic<std::int64_t>> visible(events);
  for (auto& v : visible) v.store(0, std::memory_order_relaxed);

  // Set-up, several times: the last system stays up for the timed run.
  std::vector<double> setup_s, recover_s;
  std::unique_ptr<LiveSystem> sys;
  std::string base;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    base = (fs::path{ctx.work_dir} / ("setup" + std::to_string(i)) / "archive.db").string();
    fs::create_directories(fs::path{base}.parent_path());
    copy_wals(history_base, base, kShards);
    ScopedSpan span{spans, "setup"};
    const auto t0 = Clock::now();
    double rec = 0;
    sys = start_live(base, seq_of_ts, events, ctx.trace, spans, &rec);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    recover_s.push_back(rec);
  }
  const std::uint64_t bytes0 = wal_bytes(base, kShards);

  const std::uint64_t job_feed = sys->views.job_feed;
  const std::uint64_t wf_feed = sys->views.wf_feed;
  sys->engine->on_update([&visible, &seq_of_ts, job_feed, wf_feed](const query::ViewUpdate& u) {
    if (u.view != job_feed && u.view != wf_feed) return;
    const std::int64_t t = now_ns();
    for (const auto& change : u.changes) {
      if (change.op != query::ViewChange::Op::kUpsert || change.row.empty()) continue;
      const auto it = seq_of_ts.find(ts_key(change.row[0].as_real()));
      if (it == seq_of_ts.end()) continue;
      std::int64_t expected = 0;
      visible[it->second].compare_exchange_strong(expected, t, std::memory_order_acq_rel);
    }
  });

  // Open loop: event i is due at start + i / rate, whatever happened to
  // earlier events.
  std::vector<std::int64_t> due(events), late(events), publish_ns(ctx.trace ? events : 0);
  const auto before = RegistrySnapshot::take();
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns() + 20'000'000;  // 20 ms to spin up.
  double generator_cpu = 0;
  {
    ScopedSpan span{spans, "bus.publish_loop"};
    std::exception_ptr failure;
    std::thread generator([&] {
      try {
        const double c0 = thread_cpu_s();
        for (std::size_t i = 0; i < events; ++i) {
          due[i] = start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
          // Sleep (never spin) until due: the generator must not eat the
          // CPU the system under test measures.
          std::int64_t t = now_ns();
          while (t < due[i]) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due[i] - t));
            t = now_ns();
          }
          late[i] = t - due[i];
          bus::Message m;
          m.routing_key = routing_keys[i];
          m.body = fleet.lines[split + i];
          m.published_at = fleet.ts[split + i];
          if (ctx.trace) {
            const std::int64_t p0 = now_ns();
            sys->client->publish("monitoring", std::move(m));
            publish_ns[i] = now_ns() - p0;
          } else {
            sys->client->publish("monitoring", std::move(m));
          }
        }
        generator_cpu = thread_cpu_s() - c0;
      } catch (...) {
        failure = std::current_exception();
      }
    });
    generator.join();
    if (failure) std::rethrow_exception(failure);
  }
  // Wait for every event to be acked after commit, at most as long as
  // the sending took: an event acked later counts as not acked.
  const auto wait_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(ctx.seconds));
  while (sys->sink->acked_count() < events && Clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t end = now_ns();
  const double cpu = process_cpu_s() - cpu0;
  const auto after = RegistrySnapshot::take();
  {
    ScopedSpan span{spans, "pump.stop"};
    sys->pump->stop();
  }
  const std::uint64_t rescans = sys->engine->rescans();

  // Per-event latencies from the scheduled send time.
  std::vector<double> visible_ms, ack_ms, deliver_ms, queue_ms, lag_ms, late_ms;
  std::size_t unacked = 0, unseen = 0, state_events = 0;
  for (std::size_t i = 0; i < events; ++i) {
    late_ms.push_back(static_cast<double>(late[i]) * 1e-6);
    const std::int64_t acked = sys->sink->acked(i);
    const std::int64_t arrived = sys->sink->arrived(i);
    if (acked == 0 || acked > end) {
      ++unacked;
    } else {
      ack_ms.push_back(static_cast<double>(acked - due[i]) * 1e-6);
      queue_ms.push_back(static_cast<double>(acked - arrived) * 1e-6);
    }
    if (arrived != 0) deliver_ms.push_back(static_cast<double>(arrived - due[i]) * 1e-6);
    if (fleet.writes_state_row[split + i]) {
      ++state_events;
      const std::int64_t seen = visible[i].load(std::memory_order_acquire);
      if (seen == 0) {
        ++unseen;
      } else {
        visible_ms.push_back(static_cast<double>(seen - due[i]) * 1e-6);
        if (acked != 0) lag_ms.push_back(static_cast<double>(seen - acked) * 1e-6);
      }
    }
  }

  {
    ScopedSpan span{spans, "check"};
    const loader::LoaderStats stats = sys->loader->stats();
    check_loader(r, stats, events, "live_monitor");
    r.operations(events, unacked, "live_monitor events acked after commit");
    r.operations(state_events, unseen, "live_monitor state events visible in a view");
    r.check(sys->sink->unmatched() == 0, "live_monitor: deliveries with unknown timestamps");
    check_rows(r, expected_rows(fleet, 0, split + events),
               [&](const std::string& t) {
                 return static_cast<std::int64_t>(sys->archive->row_count(t));
               },
               "live_monitor");
    // Final view snapshots equal re-executing their Selects.
    query::QueryExecutor exec{*sys->archive};
    for (const auto& [id, select] : sys->views.all) {
      const db::ResultSet maintained = sys->engine->snapshot(id);
      const auto fresh = exec.execute(select);
      r.check(maintained.columns == fresh->columns && maintained.rows == fresh->rows,
              "live_monitor: view " + std::to_string(id) + " differs from re-execution");
    }
    if (ctx.trace) {
      report_loader_counts(r, stats, events);
      r.metric("bus.redelivered", static_cast<double>(sys->sink->redelivered()), "count", events);
    }
  }
  const double wall = static_cast<double>(end - start) * 1e-9;
  r.meta("visible_ms_deciles", deciles(visible_ms));
  r.meta("generator_late_ms_deciles", deciles(late_ms));

  if (!ctx.trace) {
    r.metric("setup_s", median(setup_s), "s", setup_s.size());
    r.metric("throughput_per_s", static_cast<double>(events - unacked) / wall, "1/s", events);
    r.metric("cpu_us_per_op", cpu * 1e6 / static_cast<double>(events), "us", events);
    r.percentile_metric("latency_ms_p50", percentile(visible_ms, 0.50), "ms");
    r.percentile_metric("latency_ms_p90", percentile(visible_ms, 0.90), "ms");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    sys.reset();
    return;
  }
  const RegistryDelta delta{before, after};
  const double ev = static_cast<double>(events);
  report_write_layers(r, delta, /*shard_commits=*/true);
  r.metric("view.updates_per_event", delta.counter("stampede_view_updates_total") / ev, "ratio",
           events);
  r.metric("bus.dead_lettered", delta.counter("stampede_bus_dead_lettered_total"), "count",
           events);
  r.metric("netlogger.parse_ns_per_event", parse_ns_per_event(fleet, split, split + events, spans),
           "ns", events);
  r.metric("yang.validate_ns_per_event",
           validate_ns_per_event(fleet, split, split + events, spans), "ns", events);
  r.metric("loader.dispatch_cpu_ns_per_event", sys->sink->process_cpu_s() * 1e9 / ev, "ns", events);
  r.metric("loader.backpressure_wait_ns_per_event",
           std::max(0.0, sys->sink->process_wall_s() - sys->sink->process_cpu_s()) * 1e9 / ev,
           "ns", events);
  r.metric("loader.lane_cpu_us_per_event", (cpu - generator_cpu) * 1e6 / ev, "us", events);
  r.percentile_metric("loader.queue_to_commit_ms_p50", percentile(queue_ms, 0.5), "ms");
  r.percentile_metric("loader.ack_ms_p50", percentile(ack_ms, 0.5), "ms");
  r.percentile_metric("loader.ack_ms_p99", percentile(ack_ms, 0.99), "ms");
  r.metric("db.wal_bytes_per_event", static_cast<double>(wal_bytes(base, kShards) - bytes0) / ev,
           "B", events);
  r.metric("db.recover_s", median(recover_s), "s", recover_s.size());
  r.percentile_metric("view.lag_ms_p50", percentile(lag_ms, 0.5), "ms");
  r.percentile_metric("view.visible_ms_p50", percentile(visible_ms, 0.50), "ms");
  r.percentile_metric("view.visible_ms_p99", percentile(visible_ms, 0.99), "ms");
  r.metric("view.rescans", static_cast<double>(rescans), "count", events);
  double publish_total = 0;
  for (const auto p : publish_ns) publish_total += static_cast<double>(p);
  r.metric("bus.publish_ns_per_event", publish_total / ev, "ns", events);
  r.percentile_metric("bus.deliver_ms_p50", percentile(deliver_ms, 0.5), "ms");
  r.metric("net.bytes_per_event",
           (delta.counter("stampede_net_bytes_in_total") +
            delta.counter("stampede_net_bytes_out_total")) / ev,
           "B", events);
  const auto fps = delta.histogram("stampede_net_frames_per_syscall");
  r.metric("net.frames_per_syscall", fps.mean(), "ratio", fps.count);
  r.metric("net.epoll_wakeups_per_event", delta.counter("stampede_net_epoll_wakeups_total") / ev,
           "ratio", events);
  r.percentile_metric("generator.late_ms_p99", percentile(late_ms, 0.99), "ms");
  sys.reset();
}

void run_dashboard_read(RunContext& ctx) {
  Result& r = *ctx.result;
  SpanLog& spans = *ctx.spans;
  Fleet fleet;
  {
    ScopedSpan span{spans, "generate"};
    fleet = generate_fleet(fleet_params(ctx.params), ctx.seed);
  }
  const std::string base = (fs::path{ctx.work_dir} / "archive" / "archive.db").string();
  fs::create_directories(fs::path{base}.parent_path());
  {
    ScopedSpan span{spans, "write_archive"};
    write_archive(base, fleet, fleet.lines.size());
  }
  const auto expected = expected_rows(fleet, 0, fleet.lines.size());
  r.meta("fleet_lines", std::to_string(fleet.lines.size()));
  r.meta("fleet_workflows", std::to_string(fleet.workflows.size()));

  // Set-up, several times: recover the archive and compact it.
  std::vector<double> setup_s, recover_s, compact_s;
  std::unique_ptr<db::ShardedDatabase> archive;
  for (int i = 0; i < kSetupRepeats; ++i) {
    archive.reset();
    ScopedSpan span{spans, "setup"};
    const auto t0 = Clock::now();
    {
      ScopedSpan s{spans, "db.recover"};
      archive = orm::open_sharded_archive(base, kShards);
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan s{spans, "db.compact"};
      db::CompactorOptions copts;
      copts.interval_ms = 3'600'000;  // Only the explicit pass below runs.
      db::Compactor compactor{*archive, copts};
      compactor.run_once();
      compactor.stop();
    }
    const auto t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    recover_s.push_back(seconds_between(t0, t1));
    compact_s.push_back(seconds_between(t1, t2));
  }
  check_rows(r, expected,
             [&](const std::string& t) { return static_cast<std::int64_t>(archive->row_count(t)); },
             "dashboard_read");

  const query::QueryInterface qi{*archive};
  const query::StampedeStatistics statistics{qi};
  const query::StampedeAnalyzer analyzer{qi};
  // Skewed, seeded popularity: Zipf(1) over workflow shapes (kind and
  // size), larger (longer-running) shapes watched more, then uniform over
  // the workflows of the chosen shape. Every seed thus watches the same
  // shapes equally often, spread over both shards.
  std::map<std::string, const WorkflowMeta*> meta_of;
  for (const auto& w : fleet.workflows) meta_of[w.uuid.to_string()] = &w;
  std::map<std::pair<int, std::string>, std::vector<std::int64_t>> by_shape;
  std::size_t root_count = 0;
  for (const auto& wf : qi.root_workflows()) {
    const auto it = meta_of.find(wf.wf_uuid);
    if (it == meta_of.end() || !it->second->root) continue;
    by_shape[{-it->second->tasks, it->second->kind}].push_back(wf.wf_id);
    ++root_count;
  }
  r.check(root_count == static_cast<std::size_t>(std::count_if(
                            fleet.workflows.begin(), fleet.workflows.end(),
                            [](const WorkflowMeta& w) { return w.root; })),
          "dashboard_read: root workflow count");
  if (root_count == 0) throw std::runtime_error("dashboard_read: no workflows");
  std::vector<std::vector<std::int64_t>> shapes;  // Largest shape first.
  std::vector<double> weights;
  for (auto& [shape, ids] : by_shape) {
    std::sort(ids.begin(), ids.end());
    shapes.push_back(ids);
    weights.push_back(1.0 / static_cast<double>(shapes.size()));
  }
  std::mt19937_64 rng{ctx.seed * 0x2545F4914F6CDD1DULL + 7};
  std::discrete_distribution<std::size_t> pick_shape{weights.begin(), weights.end()};
  const auto pick = [&] {
    const auto& ids = shapes[pick_shape(rng)];
    return ids[std::uniform_int_distribution<std::size_t>{0, ids.size() - 1}(rng)];
  };
  const std::vector<db::Select> fleet_panels = {
      db::Select{"jobstate"}.group_by({"state"}).count_all("n"),
      db::Select{"invocation"}
          .group_by({"transformation"})
          .count_all("n")
          .agg(db::AggFn::kAvg, "remote_duration", "mean_s"),
      db::Select{"workflowstate"}.group_by({"state"}).count_all("n"),
  };

  std::map<std::int64_t, std::uint64_t> digests;
  std::vector<double> page_ms;
  std::vector<double> call_ms[5];
  std::uint64_t page_failures = 0, digest_mismatch = 0;
  const auto before = RegistrySnapshot::take();
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  std::size_t pages = 0;
  while (pages == 0 || seconds_between(start, Clock::now()) < ctx.seconds) {
    const std::int64_t wf = pick();
    const db::Select& panel = fleet_panels[pages % fleet_panels.size()];
    ScopedSpan page_span{spans, "page"};
    const auto p0 = Clock::now();
    try {
      std::uint64_t digest = 0;
      auto timed = [&](int call, const char* name, const std::function<std::string()>& fn) {
        if (!ctx.trace) return fnv1a(fn(), digest);
        ScopedSpan span{spans, name};
        const auto c0 = Clock::now();
        const std::uint64_t h = fnv1a(fn(), digest);
        call_ms[call].push_back(ms(seconds_between(c0, Clock::now())));
        return h;
      };
      digest = timed(0, "query.summary", [&] {
        return query::StampedeStatistics::render_summary(statistics.summary(wf));
      });
      digest = timed(1, "query.breakdown", [&] {
        return query::StampedeStatistics::render_breakdown(statistics.breakdown(wf));
      });
      digest = timed(2, "query.jobs", [&] {
        return query::StampedeStatistics::render_jobs_invocations(statistics.jobs(wf));
      });
      digest = timed(3, "query.analyze", [&] {
        return query::StampedeAnalyzer::render(analyzer.analyze(wf));
      });
      (void)timed(4, "query.fleet", [&] { return render_rows(*qi.executor().execute(panel)); });
      const auto [it, fresh] = digests.emplace(wf, digest);
      if (!fresh && it->second != digest) ++digest_mismatch;
    } catch (const std::exception& e) {
      ++page_failures;
    }
    page_ms.push_back(ms(seconds_between(p0, Clock::now())));
    ++pages;
  }
  const double wall = seconds_between(start, Clock::now());
  const double cpu = process_cpu_s() - cpu0;
  const auto after = RegistrySnapshot::take();
  r.operations(pages, page_failures, "dashboard_read pages that threw");
  r.operations(pages, digest_mismatch, "dashboard_read pages whose digest changed");
  r.meta("pages", std::to_string(pages));
  r.meta("page_ms_deciles", deciles(page_ms));
  r.meta("distinct_workflows_paged", std::to_string(digests.size()));

  if (!ctx.trace) {
    r.metric("setup_s", median(setup_s), "s", setup_s.size());
    r.metric("throughput_per_s", static_cast<double>(pages) / wall, "1/s", pages);
    r.metric("cpu_us_per_op", cpu * 1e6 / static_cast<double>(pages), "us", pages);
    r.percentile_metric("latency_ms_p50", percentile(page_ms, 0.50), "ms");
    r.percentile_metric("latency_ms_p90", percentile(page_ms, 0.90), "ms");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    return;
  }
  const RegistryDelta delta{before, after};
  const double p = static_cast<double>(pages);
  r.metric("db.recover_s", median(recover_s), "s", recover_s.size());
  r.metric("db.compact_s", median(compact_s), "s", compact_s.size());
  for (const char* plan : {"base_scan", "base_index", "columnar", "hash_join", "index_join"}) {
    r.metric(std::string{"db.plan_"} + plan + "_per_page",
             delta.counter(std::string{"stampede_db_plan_"} + plan + "_total") / p, "count", pages);
  }
  r.metric("db.segment_scans_per_page", delta.counter("stampede_segment_scans_total") / p, "count",
           pages);
  r.metric("db.segment_prunes_per_page", delta.counter("stampede_segment_prunes_total") / p,
           "count", pages);
  const char* names[5] = {"summary", "breakdown", "jobs", "analyze", "fleet"};
  for (int i = 0; i < 5; ++i) {
    r.percentile_metric(std::string{"query."} + names[i] + "_ms_p50", percentile(call_ms[i], 0.5),
                        "ms");
  }
  r.percentile_metric("query.page_ms_p50", percentile(page_ms, 0.50), "ms");
  r.percentile_metric("query.page_ms_p90", percentile(page_ms, 0.90), "ms");
  const double hits = delta.counter("stampede_query_cache_hits_total");
  const double misses = delta.counter("stampede_query_cache_misses_total");
  r.metric("query.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
           static_cast<std::size_t>(hits + misses));
  const double scatter = delta.counter("stampede_query_scatter_total");
  const double single = delta.counter("stampede_query_single_shard_total");
  r.metric("query.scatter_share", scatter + single > 0 ? scatter / (scatter + single) : 0.0,
           "ratio", static_cast<std::size_t>(scatter + single));
}

}  // namespace pipebench
