// Tests for the stampede_loader: event streams → relational archive rows,
// identity caches, deferred replay, validation outcomes, and the nl_load
// pumps (file replay and real-time AMQP).

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "bus/bp_publisher.hpp"
#include "bus/broker.hpp"
#include "loader/nl_load.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/bp_file.hpp"
#include "netlogger/events.hpp"
#include "orm/stampede_tables.hpp"

namespace nl = stampede::nl;
namespace ev = stampede::nl::events;
namespace attr = stampede::nl::events::attr;
namespace db = stampede::db;
namespace loader = stampede::loader;
using db::Value;
using stampede::common::Uuid;

namespace {

const Uuid kWf = *Uuid::parse("ea17e8ac-02ac-4909-b5e3-16e367392556");
const Uuid kSubWf = *Uuid::parse("11111111-2222-4333-8444-555555555555");

nl::LogRecord make(double ts, std::string_view event) {
  nl::LogRecord r{ts, std::string{event}};
  r.set(attr::kXwfId, kWf);
  return r;
}

/// Event stream of a 2-job linear workflow (prep → exec0), exercising the
/// full lifecycle including host info and invocations.
std::vector<nl::LogRecord> small_workflow() {
  std::vector<nl::LogRecord> events;
  double t = 1000.0;

  auto plan = make(t, ev::kWfPlan);
  plan.set(attr::kDaxLabel, std::string{"mini"});
  plan.set(attr::kUser, std::string{"alice"});
  plan.set(attr::kPlanner, std::string{"stampede-cpp-1.0"});
  events.push_back(plan);

  auto start = make(t += 1, ev::kXwfStart);
  start.set(attr::kRestartCount, std::int64_t{0});
  events.push_back(start);

  for (const auto* name : {"prep", "exec0"}) {
    auto task = make(t, ev::kTaskInfo);
    task.set(attr::kTaskId, std::string{name});
    task.set(attr::kTransformation, std::string{name});
    task.set(attr::kType, std::string{"compute"});
    events.push_back(task);
  }
  auto tedge = make(t, ev::kTaskEdge);
  tedge.set(attr::kParentTaskId, std::string{"prep"});
  tedge.set(attr::kChildTaskId, std::string{"exec0"});
  events.push_back(tedge);

  for (const auto* name : {"prep", "exec0"}) {
    auto job = make(t, ev::kJobInfo);
    job.set(attr::kJobId, std::string{name});
    job.set(attr::kType, std::string{"compute"});
    job.set(attr::kTransformation, std::string{name});
    events.push_back(job);
    auto map = make(t, ev::kMapTaskJob);
    map.set(attr::kTaskId, std::string{name});
    map.set(attr::kJobId, std::string{name});
    events.push_back(map);
  }
  auto jedge = make(t, ev::kJobEdge);
  jedge.set(attr::kParentJobId, std::string{"prep"});
  jedge.set(attr::kChildJobId, std::string{"exec0"});
  events.push_back(jedge);

  for (const auto* name : {"prep", "exec0"}) {
    auto submit = make(t += 1, ev::kJobInstSubmitStart);
    submit.set(attr::kJobId, std::string{name});
    submit.set(attr::kJobInstId, std::int64_t{1});
    submit.set(attr::kSchedId, std::string{"condor-42"});
    events.push_back(submit);

    auto submitted = make(t += 1, ev::kJobInstSubmitEnd);
    submitted.set(attr::kJobId, std::string{name});
    submitted.set(attr::kJobInstId, std::int64_t{1});
    submitted.set(attr::kStatus, std::int64_t{0});
    events.push_back(submitted);

    auto host = make(t += 2, ev::kJobInstHostInfo);
    host.set(attr::kJobId, std::string{name});
    host.set(attr::kJobInstId, std::int64_t{1});
    host.set(attr::kHostname, std::string{"trianaworker6"});
    host.set(attr::kSite, std::string{"cardiff"});
    events.push_back(host);

    auto running = make(t, ev::kJobInstMainStart);
    running.set(attr::kJobId, std::string{name});
    running.set(attr::kJobInstId, std::int64_t{1});
    events.push_back(running);

    auto inv = make(t += 10, ev::kInvEnd);
    inv.set(attr::kJobId, std::string{name});
    inv.set(attr::kJobInstId, std::int64_t{1});
    inv.set(attr::kInvId, std::int64_t{1});
    inv.set(attr::kTaskId, std::string{name});
    inv.set(attr::kDur, 10.0);
    inv.set(attr::kExitcode, std::int64_t{0});
    inv.set(attr::kTransformation, std::string{name});
    events.push_back(inv);

    auto term = make(t, ev::kJobInstMainTerm);
    term.set(attr::kJobId, std::string{name});
    term.set(attr::kJobInstId, std::int64_t{1});
    term.set(attr::kStatus, std::int64_t{0});
    events.push_back(term);

    auto done = make(t, ev::kJobInstMainEnd);
    done.set(attr::kJobId, std::string{name});
    done.set(attr::kJobInstId, std::int64_t{1});
    done.set(attr::kExitcode, std::int64_t{0});
    events.push_back(done);
  }

  auto end = make(t += 1, ev::kXwfEnd);
  end.set(attr::kRestartCount, std::int64_t{0});
  end.set(attr::kStatus, std::int64_t{0});
  events.push_back(end);
  return events;
}

struct LoaderFixture : ::testing::Test {
  LoaderFixture() { stampede::orm::create_stampede_schema(database); }
  db::Database database;
};

}  // namespace

// ---------------------------------------------------------------------------
// Happy path

TEST_F(LoaderFixture, LoadsFullWorkflowStream) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) {
    EXPECT_TRUE(l.process(e)) << e.event();
  }
  l.finish();

  EXPECT_EQ(database.row_count("workflow"), 1u);
  EXPECT_EQ(database.row_count("task"), 2u);
  EXPECT_EQ(database.row_count("task_edge"), 1u);
  EXPECT_EQ(database.row_count("job"), 2u);
  EXPECT_EQ(database.row_count("job_edge"), 1u);
  EXPECT_EQ(database.row_count("job_instance"), 2u);
  EXPECT_EQ(database.row_count("invocation"), 2u);
  EXPECT_EQ(database.row_count("host"), 1u);  // deduplicated
  EXPECT_EQ(database.row_count("workflowstate"), 2u);

  const auto& stats = l.stats();
  EXPECT_EQ(stats.events_invalid, 0u);
  EXPECT_EQ(stats.events_unknown, 0u);
  EXPECT_EQ(stats.events_loaded, stats.events_seen);
}

TEST_F(LoaderFixture, WorkflowRowCarriesPlanMetadata) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto rs = database.execute(db::Select{"workflow"}.columns(
      {"wf_uuid", "dax_label", "user", "planner_version", "root_wf_id",
       "wf_id"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, "wf_uuid").as_text(), kWf.to_string());
  EXPECT_EQ(rs.at(0, "dax_label").as_text(), "mini");
  EXPECT_EQ(rs.at(0, "user").as_text(), "alice");
  EXPECT_EQ(rs.at(0, "planner_version").as_text(), "stampede-cpp-1.0");
  // Root of a standalone workflow is itself.
  EXPECT_EQ(rs.at(0, "root_wf_id").as_int(), rs.at(0, "wf_id").as_int());
}

TEST_F(LoaderFixture, JobstateSequenceIsOrdered) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto rs = database.execute(
      db::Select{"jobstate"}
          .join("job_instance", "job_instance_id", "job_instance_id")
          .join("job", "job_instance.job_id", "job_id")
          .where(db::eq("job.exec_job_id", Value{"exec0"}))
          .columns({"jobstate.state", "jobstate.jobstate_submit_seq"})
          .order_by("jobstate.jobstate_submit_seq"));
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs.at(0, "jobstate.state").as_text(), "SUBMIT");
  EXPECT_EQ(rs.at(1, "jobstate.state").as_text(), "EXECUTE");
  EXPECT_EQ(rs.at(2, "jobstate.state").as_text(), "JOB_TERMINATED");
  EXPECT_EQ(rs.at(3, "jobstate.state").as_text(), "JOB_SUCCESS");
}

TEST_F(LoaderFixture, JobInstanceGetsDurationExitcodeHost) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto rs = database.execute(
      db::Select{"job_instance"}
          .join("job", "job_id", "job_id")
          .join("host", "job_instance.host_id", "host_id")
          .where(db::eq("job.exec_job_id", Value{"exec0"}))
          .columns({"job_instance.exitcode", "job_instance.local_duration",
                    "host.hostname", "job_instance.site"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, "job_instance.exitcode").as_int(), 0);
  EXPECT_DOUBLE_EQ(rs.at(0, "job_instance.local_duration").as_number(), 10.0);
  EXPECT_EQ(rs.at(0, "host.hostname").as_text(), "trianaworker6");
  EXPECT_EQ(rs.at(0, "job_instance.site").as_text(), "cardiff");
}

TEST_F(LoaderFixture, InvocationLinksBackToAbstractTask) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto rs = database.execute(
      db::Select{"invocation"}
          .where(db::eq("abs_task_id", Value{"exec0"}))
          .columns({"remote_duration", "exitcode", "transformation"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.at(0, "remote_duration").as_number(), 10.0);
  EXPECT_EQ(rs.at(0, "transformation").as_text(), "exec0");
}

TEST_F(LoaderFixture, TaskJobMappingRecorded) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto rs = database.execute(
      db::Select{"task"}
          .join("job", "task.job_id", "job_id")
          .columns({"task.abs_task_id", "job.exec_job_id"}));
  EXPECT_EQ(rs.size(), 2u);  // 1:1 here (Triana-style mapping)
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs.at(i, "task.abs_task_id").as_text(),
              rs.at(i, "job.exec_job_id").as_text());
  }
}

// ---------------------------------------------------------------------------
// Ordering robustness

TEST_F(LoaderFixture, JobInstEventBeforeJobInfoIsDeferredThenApplied) {
  loader::StampedeLoader l{database};
  auto submit = make(1.0, ev::kJobInstSubmitStart);
  submit.set(attr::kJobId, std::string{"late"});
  submit.set(attr::kJobInstId, std::int64_t{1});
  EXPECT_FALSE(l.process(submit));  // deferred
  EXPECT_EQ(l.deferred_count(), 1u);

  auto job = make(2.0, ev::kJobInfo);
  job.set(attr::kJobId, std::string{"late"});
  EXPECT_TRUE(l.process(job));  // triggers replay
  EXPECT_EQ(l.deferred_count(), 0u);
  l.finish();
  EXPECT_EQ(database.row_count("job_instance"), 1u);
  EXPECT_EQ(l.stats().events_deferred, 1u);
  EXPECT_EQ(l.stats().events_dropped, 0u);
}

TEST_F(LoaderFixture, OrphanEventIsDroppedAtFinish) {
  loader::StampedeLoader l{database};
  auto inv = make(1.0, ev::kInvEnd);
  inv.set(attr::kJobId, std::string{"ghost"});
  inv.set(attr::kJobInstId, std::int64_t{1});
  inv.set(attr::kInvId, std::int64_t{1});
  inv.set(attr::kDur, 1.0);
  inv.set(attr::kExitcode, std::int64_t{0});
  EXPECT_FALSE(l.process(inv));
  l.finish();
  EXPECT_EQ(l.stats().events_dropped, 1u);
  EXPECT_EQ(database.row_count("invocation"), 0u);
}

TEST_F(LoaderFixture, SubworkflowEventsBeforeParentPlanCreateStub) {
  loader::StampedeLoader l{database};
  // The sub-workflow starts reporting before any plan event exists.
  nl::LogRecord start{1.0, std::string{ev::kXwfStart}};
  start.set(attr::kXwfId, kSubWf);
  start.set(attr::kRestartCount, std::int64_t{0});
  EXPECT_TRUE(l.process(start));
  EXPECT_TRUE(l.wf_id(kSubWf).has_value());
  l.flush_hint();  // The stub is queued like any row; commit it.
  EXPECT_EQ(database.row_count("workflow"), 1u);

  // Parent plan names the child later; child row is reused, not duplicated.
  nl::LogRecord plan{2.0, std::string{ev::kWfPlan}};
  plan.set(attr::kXwfId, kSubWf);
  plan.set(attr::kParentXwfId, kWf);
  EXPECT_TRUE(l.process(plan));
  l.finish();
  EXPECT_EQ(database.row_count("workflow"), 2u);  // stub parent + child
  const auto rs = database.execute(
      db::Select{"workflow"}
          .where(db::eq("wf_uuid", Value{kSubWf.to_string()}))
          .columns({"parent_wf_id"}));
  EXPECT_FALSE(rs.at(0, "parent_wf_id").is_null());
}

TEST_F(LoaderFixture, SubwfJobMappingSetsSubwfId) {
  loader::StampedeLoader l{database};
  auto job = make(1.0, ev::kJobInfo);
  job.set(attr::kJobId, std::string{"subwf-runner"});
  l.process(job);

  auto mapping = make(2.0, ev::kMapSubwfJob);
  mapping.set(attr::kSubwfId, kSubWf);
  mapping.set(attr::kJobId, std::string{"subwf-runner"});
  mapping.set(attr::kJobInstId, std::int64_t{1});
  EXPECT_TRUE(l.process(mapping));
  l.finish();

  const auto subwf_id = l.wf_id(kSubWf);
  ASSERT_TRUE(subwf_id.has_value());
  const auto rs = database.execute(
      db::Select{"job_instance"}.columns({"subwf_id"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, "subwf_id").as_int(), *subwf_id);
}

// ---------------------------------------------------------------------------
// Validation & error accounting

TEST_F(LoaderFixture, InvalidEventIsCountedAndSkipped) {
  loader::StampedeLoader l{database};
  nl::LogRecord bad{1.0, std::string{ev::kXwfStart}};
  bad.set(attr::kXwfId, kWf);
  // restart_count mandatory but missing.
  EXPECT_FALSE(l.process(bad));
  EXPECT_EQ(l.stats().events_invalid, 1u);
  EXPECT_EQ(database.row_count("workflowstate"), 0u);
}

TEST_F(LoaderFixture, UnknownEventIsCounted) {
  loader::StampedeLoader l{database};
  nl::LogRecord odd{1.0, "stampede.not.a.thing"};
  EXPECT_FALSE(l.process(odd));
  EXPECT_EQ(l.stats().events_invalid, 1u);  // schema rejects unknown events
}

TEST_F(LoaderFixture, ValidationCanBeDisabled) {
  loader::LoaderOptions options;
  options.validate = false;
  loader::StampedeLoader l{database, options};
  nl::LogRecord lax{1.0, std::string{ev::kXwfStart}};
  lax.set(attr::kXwfId, kWf);
  // Missing mandatory restart_count, but validation is off and the
  // handler tolerates it.
  EXPECT_TRUE(l.process(lax));
  l.finish();
  EXPECT_EQ(database.row_count("workflowstate"), 1u);
}

TEST_F(LoaderFixture, PerEventStatsAreKept) {
  loader::StampedeLoader l{database};
  for (const auto& e : small_workflow()) l.process(e);
  l.finish();
  const auto& by_event = l.stats().by_event;
  EXPECT_EQ(by_event.at(std::string{ev::kTaskInfo}), 2u);
  EXPECT_EQ(by_event.at(std::string{ev::kInvEnd}), 2u);
  EXPECT_EQ(by_event.at(std::string{ev::kXwfStart}), 1u);
}

// ---------------------------------------------------------------------------
// nl_load pumps

TEST_F(LoaderFixture, LoadStreamParsesAndLoads) {
  std::string text;
  for (const auto& e : small_workflow()) {
    text += nl::format_record(e) + "\n";
  }
  text += "garbage line\n";
  std::istringstream in{text};
  loader::StampedeLoader l{database};
  const auto stats = loader::load_stream(in, l);
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(stats.messages, small_workflow().size());
  EXPECT_EQ(database.row_count("invocation"), 2u);
}

TEST_F(LoaderFixture, LoadFileReplaysRetainedLogs) {
  const auto path = std::filesystem::temp_directory_path() /
                    "stampede_test_nl_load.bp";
  {
    nl::BpFileWriter writer{path.string()};
    for (const auto& e : small_workflow()) writer.write(e);
  }
  loader::StampedeLoader l{database};
  const auto stats = loader::load_file(path.string(), l);
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(database.row_count("job_instance"), 2u);
  std::filesystem::remove(path);
  EXPECT_THROW(loader::load_file("/no/such/file.bp", l), std::runtime_error);
}

TEST_F(LoaderFixture, QueuePumpLoadsInRealTime) {
  stampede::bus::Broker broker;
  broker.declare_queue("stampede", {.durable = false});
  stampede::bus::BpPublisher publisher{broker, "monitoring"};
  broker.bind("stampede", "monitoring", "stampede.#");

  loader::StampedeLoader l{database};
  loader::QueuePump pump{broker, "stampede", l};
  pump.start();

  for (const auto& e : small_workflow()) publisher.publish(e);
  ASSERT_TRUE(pump.wait_until_drained(5000));
  pump.stop();

  EXPECT_EQ(database.row_count("workflow"), 1u);
  EXPECT_EQ(database.row_count("invocation"), 2u);
  EXPECT_EQ(pump.stats().messages, small_workflow().size());
  EXPECT_EQ(broker.queue_stats("stampede").unacked, 0u);
}

// ---------------------------------------------------------------------------
// Resumable loading over a recovered archive

TEST_F(LoaderFixture, ReloadingTheSameLogIsStructurallyIdempotent) {
  // First load.
  {
    loader::StampedeLoader first{database};
    for (const auto& e : small_workflow()) first.process(e);
    first.finish();
  }
  const auto jobs = database.row_count("job");
  const auto tasks = database.row_count("task");
  const auto invocations = database.row_count("invocation");
  const auto instances = database.row_count("job_instance");

  // A second, fresh loader (cold caches — as after a process restart)
  // replays the identical log into the same archive.
  {
    loader::StampedeLoader second{database};
    for (const auto& e : small_workflow()) second.process(e);
    second.finish();
    EXPECT_EQ(second.stats().events_invalid, 0u);
  }
  EXPECT_EQ(database.row_count("workflow"), 1u);
  EXPECT_EQ(database.row_count("job"), jobs);
  EXPECT_EQ(database.row_count("task"), tasks);
  EXPECT_EQ(database.row_count("invocation"), invocations);
  EXPECT_EQ(database.row_count("job_instance"), instances);
}

TEST_F(LoaderFixture, SecondLoaderExtendsAnExistingWorkflow) {
  // Load the static part with one loader...
  loader::StampedeLoader first{database};
  const auto events = small_workflow();
  for (std::size_t i = 0; i < events.size() / 2; ++i) {
    first.process(events[i]);
  }
  first.finish();
  // ...and the rest with another (e.g. nl_load restarted mid-run).
  loader::StampedeLoader second{database};
  for (std::size_t i = events.size() / 2; i < events.size(); ++i) {
    second.process(events[i]);
  }
  second.finish();
  EXPECT_EQ(second.stats().events_dropped, 0u);
  EXPECT_EQ(database.row_count("workflow"), 1u);
  EXPECT_EQ(database.row_count("job_instance"), 2u);
  EXPECT_EQ(database.row_count("invocation"), 2u);
}

// ---------------------------------------------------------------------------
// Out-of-order delivery robustness

#include <algorithm>
#include <random>

TEST_F(LoaderFixture, FullyShuffledStreamLoadsTheSameArchive) {
  // Load in order into a reference archive.
  db::Database reference;
  stampede::orm::create_stampede_schema(reference);
  {
    loader::StampedeLoader ordered{reference};
    for (const auto& e : small_workflow()) ordered.process(e);
    ordered.finish();
  }

  // Load a deterministically shuffled copy — every structural reference
  // may now arrive before its referent; the deferral queue must absorb
  // all of it.
  auto events = small_workflow();
  std::mt19937_64 shuffle_rng{0xC0FFEE};
  std::shuffle(events.begin(), events.end(), shuffle_rng);
  loader::StampedeLoader shuffled{database};
  for (const auto& e : events) shuffled.process(e);
  shuffled.finish();

  EXPECT_EQ(shuffled.stats().events_invalid, 0u);
  EXPECT_EQ(shuffled.stats().events_dropped, 0u);
  for (const auto& table :
       {"workflow", "task", "task_edge", "job", "job_edge", "job_instance",
        "jobstate", "invocation", "host", "workflowstate"}) {
    EXPECT_EQ(database.row_count(table), reference.row_count(table)) << table;
  }
  // Semantic spot-check: the exec0 invocation is fully linked.
  const auto rs = database.execute(
      db::Select{"invocation"}
          .join("job_instance", "job_instance_id", "job_instance_id")
          .join("job", "job_instance.job_id", "job_id")
          .where(db::eq("job.exec_job_id", Value{"exec0"}))
          .columns({"invocation.remote_duration", "invocation.exitcode"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.at(0, "invocation.remote_duration").as_number(), 10.0);
}

TEST_F(LoaderFixture, ReversedStreamLoadsCleanly) {
  auto events = small_workflow();
  std::reverse(events.begin(), events.end());
  loader::StampedeLoader l{database};
  for (const auto& e : events) l.process(e);
  l.finish();
  EXPECT_EQ(l.stats().events_dropped, 0u);
  EXPECT_EQ(database.row_count("invocation"), 2u);
  EXPECT_EQ(database.row_count("job_instance"), 2u);
}

// ---------------------------------------------------------------------------
// Deferral queue bound (defer_max)

TEST_F(LoaderFixture, DeferMaxEvictsOldestDeferredEvent) {
  loader::LoaderOptions opts;
  opts.defer_max = 4;
  loader::StampedeLoader l{database, opts};
  // Ten orphan events (no job_info referent): all defer, but the queue
  // must never exceed the cap — the oldest six are evicted.
  for (int i = 0; i < 10; ++i) {
    auto submit = make(1.0 + i, ev::kJobInstSubmitStart);
    submit.set(attr::kJobId, "orphan-" + std::to_string(i));
    submit.set(attr::kJobInstId, std::int64_t{1});
    EXPECT_FALSE(l.process(submit));
  }
  EXPECT_EQ(l.deferred_count(), 4u);
  EXPECT_EQ(l.stats().deferred_evicted, 6u);
  EXPECT_EQ(l.stats().events_dropped, 6u);

  // A survivor's referent arriving still replays it successfully.
  auto job = make(20.0, ev::kJobInfo);
  job.set(attr::kJobId, std::string{"orphan-9"});
  EXPECT_TRUE(l.process(job));
  l.finish();
  EXPECT_EQ(database.row_count("job_instance"), 1u);
}

TEST_F(LoaderFixture, DeferMaxZeroDisablesTheCap) {
  loader::LoaderOptions opts;
  opts.defer_max = 0;
  loader::StampedeLoader l{database, opts};
  for (int i = 0; i < 10; ++i) {
    auto submit = make(1.0 + i, ev::kJobInstSubmitStart);
    submit.set(attr::kJobId, "orphan-" + std::to_string(i));
    submit.set(attr::kJobInstId, std::int64_t{1});
    l.process(submit);
  }
  EXPECT_EQ(l.deferred_count(), 10u);
  EXPECT_EQ(l.stats().deferred_evicted, 0u);
}

// ---------------------------------------------------------------------------
// LoaderStats aggregation

TEST(LoaderStats, MergeSumsCountersAndEventMap) {
  loader::LoaderStats a;
  a.events_seen = 3;
  a.events_loaded = 2;
  a.by_event["x"] = 1;
  loader::LoaderStats b;
  b.events_seen = 5;
  b.events_loaded = 4;
  b.deferred_evicted = 1;
  b.by_event["x"] = 2;
  b.by_event["y"] = 7;
  a.merge(b);
  EXPECT_EQ(a.events_seen, 8u);
  EXPECT_EQ(a.events_loaded, 6u);
  EXPECT_EQ(a.deferred_evicted, 1u);
  EXPECT_EQ(a.by_event["x"], 3u);
  EXPECT_EQ(a.by_event["y"], 7u);
}

// ---------------------------------------------------------------------------
// Age-based flush deadline (bounded ack latency under trickle input)

#include <chrono>
#include <mutex>
#include <thread>

#include "db/sharded_database.hpp"
#include "loader/sharded_loader.hpp"

// Regression: lanes used to flush only on flush_hint() markers with an
// empty queue, so a trickle without hints held applied-but-uncommitted
// rows (and their acks) until a full batch or finish(). The age-based
// deadline must release them on its own, within a bounded delay.
TEST(LoaderFlushDeadline, TrickleAcksWithinDeadlineWithoutFlushHints) {
  db::ShardedDatabase archive{2};
  stampede::orm::create_stampede_schema(archive);
  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 50;
  loader::ShardedLoader lanes{archive, opts};

  std::mutex mutex;
  std::size_t acked = 0;
  lanes.set_ack_callback([&](std::uint64_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++acked;
  });

  const auto events = small_workflow();
  std::uint64_t tag = 0;
  for (const auto& record : events) {
    ASSERT_TRUE(lanes.process(record, nullptr, false, ++tag));
  }

  // NO flush_hint() and NO finish(): only the deadline can commit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (acked == events.size()) break;
    }
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(acked, events.size()) << "acks held past the flush deadline";
  }
  lanes.finish();
}

// A steady trickle must not starve the deadline either: the timer keys
// off the OLDEST pending row, not the newest arrival.
TEST(LoaderFlushDeadline, SteadyTrickleDoesNotStarveTheDeadline) {
  db::ShardedDatabase archive{1};
  stampede::orm::create_stampede_schema(archive);
  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 40;
  loader::ShardedLoader lanes{archive, opts};

  std::mutex mutex;
  std::size_t acked = 0;
  lanes.set_ack_callback([&](std::uint64_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++acked;
  });

  const auto events = small_workflow();
  std::uint64_t tag = 0;
  std::size_t first_acked = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& record : events) {
    ASSERT_TRUE(lanes.process(record, nullptr, false, ++tag));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::lock_guard<std::mutex> lock(mutex);
    if (first_acked == 0) first_acked = acked;
    // With a new event every 10 ms, a deadline that reset on each
    // arrival would never fire; keyed off the oldest pending row it
    // must fire while the trickle is still flowing.
    if (acked > 0 && std::chrono::steady_clock::now() - start >
                         std::chrono::milliseconds(400)) {
      break;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_GT(acked, 0u) << "deadline starved by steady trickle";
  }
  lanes.finish();
}

// The deadline holds for a StampedeLoader driven inline by a QueuePump
// too. A 10 ms trickle never lets the pump's 20 ms basic_get time out,
// so no idle flush ever runs; only the deadline can release the acks
// while the trickle lasts.
TEST(LoaderFlushDeadline, InlinePumpTrickleAcksWithinDeadline) {
  db::Database archive;
  stampede::orm::create_stampede_schema(archive);
  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 40;
  loader::StampedeLoader ldr{archive, opts};
  // The workflow skeleton the trickled events refer to.
  for (const auto& record : small_workflow()) ldr.process(record);

  stampede::bus::Broker broker;
  broker.declare_queue("stampede", {.durable = false});
  stampede::bus::BpPublisher publisher{broker, "monitoring"};
  broker.bind("stampede", "monitoring", "stampede.#");
  loader::QueuePump pump{broker, "stampede", ldr};
  pump.start();

  constexpr std::size_t kEvents = 40;
  const auto acked = [&](std::size_t published) {
    const auto qs = broker.queue_stats("stampede");
    return published - qs.depth - qs.unacked;
  };
  for (std::size_t i = 0; i < kEvents; ++i) {
    auto running = make(2000.0 + static_cast<double>(i), ev::kJobInstMainStart);
    running.set(attr::kJobId, std::string{"prep"});
    running.set(attr::kJobInstId, std::int64_t{1});
    publisher.publish(running);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Events older than the deadline (plus a poll's slack) are acked
  // while the trickle is still flowing; without the deadline none are.
  EXPECT_GE(acked(kEvents), kEvents / 2) << "acks held past the deadline";
  ASSERT_TRUE(pump.wait_until_drained(5000));
  pump.stop();
  EXPECT_EQ(acked(kEvents), kEvents);
}

// Direct unit coverage of the deadline bookkeeping on StampedeLoader.
TEST(LoaderFlushDeadline, DeadlineTracksOldestPendingAndDisablesAtZero) {
  db::Database archive;
  stampede::orm::create_stampede_schema(archive);
  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 30;
  loader::StampedeLoader ldr{archive, opts};

  EXPECT_FALSE(ldr.flush_deadline_due());  // Nothing pending.
  auto plan = make(1000.0, ev::kWfPlan);
  ASSERT_TRUE(ldr.process(plan));
  EXPECT_FALSE(ldr.flush_deadline_due());  // Pending but young.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(ldr.flush_deadline_due());   // Aged past the deadline.
  ldr.maybe_deadline_flush();
  EXPECT_FALSE(ldr.flush_deadline_due());  // Flush cleared the clock.
  EXPECT_EQ(archive.row_count("workflow"), 1u);

  loader::LoaderOptions off;
  off.flush_deadline_ms = 0;               // 0 disables the deadline.
  loader::StampedeLoader manual{archive, off};
  auto plan2 = nl::LogRecord{2000.0, std::string{ev::kWfPlan}};
  plan2.set(attr::kXwfId, kSubWf);
  ASSERT_TRUE(manual.process(plan2));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(manual.flush_deadline_due());
  manual.finish();
  ldr.finish();
}

// ---------------------------------------------------------------------------
// Full batches: keys reserved when a row is queued, fresh workflows
// answered from the loader's own id maps

#include <fstream>
#include <iterator>

#include "dart/experiment.hpp"
#include "telemetry/metrics.hpp"

namespace {

/// A validator-complete stream of one workflow with `jobs` jobs: plan,
/// start, then per job its task, job, mapping, submit, host, execute,
/// invocation and end events, then the workflow end — 9 * jobs + 3
/// events, every referent arriving before its first use.
std::vector<nl::LogRecord> many_job_workflow(const Uuid& wf, int jobs) {
  std::vector<nl::LogRecord> events;
  double t = 5000.0;
  const auto at = [&](std::string_view event) {
    nl::LogRecord r{t += 0.001, std::string{event}};
    r.set(attr::kXwfId, wf);
    return r;
  };
  auto plan = at(ev::kWfPlan);
  plan.set(attr::kDaxLabel, std::string{"wide"});
  plan.set(attr::kUser, std::string{"alice"});
  plan.set(attr::kPlanner, std::string{"stampede-cpp-1.0"});
  events.push_back(plan);
  auto start = at(ev::kXwfStart);
  start.set(attr::kRestartCount, std::int64_t{0});
  events.push_back(start);
  for (int j = 0; j < jobs; ++j) {
    const std::string name = "job" + std::to_string(j);
    const auto ji = [&](std::string_view event) {
      auto r = at(event);
      r.set(attr::kJobId, name);
      r.set(attr::kJobInstId, std::int64_t{1});
      return r;
    };
    auto task = at(ev::kTaskInfo);
    task.set(attr::kTaskId, name);
    task.set(attr::kTransformation, name);
    task.set(attr::kType, std::string{"compute"});
    events.push_back(task);
    auto job = at(ev::kJobInfo);
    job.set(attr::kJobId, name);
    job.set(attr::kType, std::string{"compute"});
    job.set(attr::kTransformation, name);
    events.push_back(job);
    auto map = at(ev::kMapTaskJob);
    map.set(attr::kTaskId, name);
    map.set(attr::kJobId, name);
    events.push_back(map);
    auto submit = ji(ev::kJobInstSubmitStart);
    submit.set(attr::kSchedId, "condor-" + std::to_string(j));
    events.push_back(submit);
    auto host = ji(ev::kJobInstHostInfo);
    host.set(attr::kHostname, "worker" + std::to_string(j % 4));
    host.set(attr::kSite, std::string{"cardiff"});
    events.push_back(host);
    events.push_back(ji(ev::kJobInstMainStart));
    auto inv = ji(ev::kInvEnd);
    inv.set(attr::kInvId, std::int64_t{1});
    inv.set(attr::kTaskId, name);
    inv.set(attr::kDur, 1.5);
    inv.set(attr::kExitcode, std::int64_t{0});
    inv.set(attr::kTransformation, name);
    events.push_back(inv);
    auto term = ji(ev::kJobInstMainTerm);
    term.set(attr::kStatus, std::int64_t{0});
    events.push_back(term);
    auto done = ji(ev::kJobInstMainEnd);
    done.set(attr::kExitcode, std::int64_t{0});
    events.push_back(done);
  }
  auto end = at(ev::kXwfEnd);
  end.set(attr::kRestartCount, std::int64_t{0});
  end.set(attr::kStatus, std::int64_t{0});
  events.push_back(end);
  return events;
}

std::uint64_t plan_base_fetches() {
  auto& r = stampede::telemetry::registry();
  return r.counter("stampede_db_plan_base_index_total").value() +
         r.counter("stampede_db_plan_base_scan_total").value();
}

/// Retains the BP log of a small DART run (Triana-driven sub-workflow
/// tree) at `path`.
void retain_dart_log(const std::filesystem::path& path) {
  std::filesystem::remove(path);
  stampede::dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.tones_per_task = 2;
  db::Database live;
  stampede::dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  options.retain_log_path = path.string();
  ASSERT_EQ(stampede::dart::run_dart_experiment(config, live, options).status,
            0);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, {}};
}

}  // namespace

// A fresh workflow never cuts a batch short: the stub, job, job instance
// and host keys are reserved when their rows are queued, and the
// task/job/instance lookups hit the loader's maps. The only query is the
// wf_uuid probe that decides the workflow is not in the archive.
TEST(LoaderBatching, FreshWorkflowCommitsFullBatches) {
  db::Database archive;
  stampede::orm::create_stampede_schema(archive);
  loader::LoaderOptions opts;
  opts.flush_deadline_ms = 0;
  loader::StampedeLoader l{archive, opts};
  const auto events = many_job_workflow(kWf, 70);
  ASSERT_GE(events.size(), 600u);

  const std::uint64_t probes_before = plan_base_fetches();
  for (const auto& event : events) ASSERT_TRUE(l.process(event));
  EXPECT_EQ(plan_base_fetches() - probes_before, 1u);
  l.finish();

  const auto& session = l.session().stats();
  EXPECT_EQ(session.flushed_ops, session.queued);
  EXPECT_GT(session.queued, 2u * 256u);
  EXPECT_EQ(session.flush_batches, (session.queued + 255) / 256);
  EXPECT_EQ(l.stats().events_loaded, events.size());
  EXPECT_EQ(l.stats().events_deferred, 0u);

  // The rows landed under their reserved keys and link up.
  EXPECT_EQ(archive.row_count("job"), 70u);
  EXPECT_EQ(archive.row_count("job_instance"), 70u);
  EXPECT_EQ(archive.row_count("host"), 4u);
  const auto unmapped = archive.execute(
      db::Select{"task"}.where(db::is_null("job_id")).columns({"task_id"}));
  EXPECT_TRUE(unmapped.empty());
  const auto linked = archive.execute(
      db::Select{"job_instance"}
          .join("job", "job_instance.job_id", "job_id")
          .join("host", "job_instance.host_id", "host_id")
          .where(db::eq("job.wf_id", Value{*l.wf_id(kWf)}))
          .columns({"job_instance.job_instance_id"}));
  EXPECT_EQ(linked.size(), 70u);
}

// Batch boundaries never show in the archive: one row per flush and one
// 256-row batch write the same WAL bytes.
TEST(LoaderBatching, WalIsByteIdenticalAcrossBatchSizes) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto log = dir / "stampede_test_loader_batching.bp";
  retain_dart_log(log);
  std::string wal[2];
  const std::size_t batch_sizes[2] = {1, 256};
  for (int i = 0; i < 2; ++i) {
    const auto path = dir / ("stampede_test_loader_batching_" +
                             std::to_string(batch_sizes[i]) + ".wal");
    std::filesystem::remove(path);
    {
      db::Database archive{path.string()};
      stampede::orm::create_stampede_schema(archive);
      loader::LoaderOptions opts;
      opts.batch_size = batch_sizes[i];
      loader::StampedeLoader l{archive, opts};
      for (const auto& event : many_job_workflow(kWf, 40)) l.process(event);
      const auto pump = loader::load_file(log.string(), l);
      EXPECT_EQ(pump.parse_errors, 0u);
      EXPECT_EQ(l.stats().events_dropped, 0u);
    }
    wal[i] = slurp(path);
    std::filesystem::remove(path);
  }
  std::filesystem::remove(log);
  EXPECT_GT(wal[0].size(), 0u);
  EXPECT_EQ(wal[0], wal[1]);
}

// Reservation draws from each shard's strided sequence, so every key a
// lane assigns names its shard: (key - 1) mod 2 is the shard.
TEST(LoaderBatching, ReservedKeysStayInTheirShardsCongruenceClass) {
  db::ShardedDatabase archive{2};
  stampede::orm::create_stampede_schema(archive);
  loader::ShardedLoader l{archive};
  for (int w = 0; w < 8; ++w) {
    const Uuid wf = *Uuid::parse("00000000-0000-4000-8000-00000000000" +
                                 std::to_string(w));
    for (const auto& event : many_job_workflow(wf, 5)) l.process(event);
  }
  l.finish();
  EXPECT_EQ(l.stats().events_dropped, 0u);
  for (std::size_t s = 0; s < archive.shard_count(); ++s) {
    const db::StorageShard& shard = archive.shard(s);
    std::size_t keyed_rows = 0;
    for (const auto& table : shard.table_names()) {
      const db::TableDef& def = shard.table_def(table);
      if (def.primary_key.empty()) continue;
      const auto col = def.column_index(def.primary_key);
      ASSERT_TRUE(col.has_value());
      shard.for_each_row(table, [&](db::RowId, const db::Row& row) {
        ++keyed_rows;
        EXPECT_EQ((row[*col].as_int() - 1) % 2, static_cast<std::int64_t>(s))
            << table << " key " << row[*col].as_int() << " on shard " << s;
      });
    }
    EXPECT_GT(keyed_rows, 0u) << "shard " << s << " got no workflow";
  }
}
