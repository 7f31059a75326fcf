// Tests for the DART module: the SHS science kernel, the workload
// generator, and the end-to-end experiment pipeline (engine → bus →
// loader → archive → statistics).

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "dart/experiment.hpp"
#include "orm/stampede_tables.hpp"
#include "dart/fft.hpp"
#include "dart/shs.hpp"
#include "dart/workload.hpp"
#include "query/analyzer.hpp"
#include "query/statistics.hpp"
#include "telemetry/metrics.hpp"

namespace dart = stampede::dart;
namespace db = stampede::db;
namespace query = stampede::query;
using stampede::common::Rng;

// ---------------------------------------------------------------------------
// FFT

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  dart::fft(data);
  for (const auto& bin : data) {
    EXPECT_NEAR(std::abs(bin), 1.0, 1e-12);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(dart::fft(data), std::invalid_argument);
}

TEST(Fft, SinusoidPeaksAtItsBin) {
  constexpr std::size_t kN = 256;
  constexpr double kBin = 16.0;
  std::vector<std::complex<double>> data(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    data[i] = {std::sin(2.0 * std::numbers::pi * kBin *
                        static_cast<double>(i) / kN),
               0.0};
  }
  dart::fft(data);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < kN / 2; ++i) {
    if (std::abs(data[i]) > std::abs(data[peak])) peak = i;
  }
  EXPECT_EQ(peak, static_cast<std::size_t>(kBin));
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(dart::next_pow2(1), 1u);
  EXPECT_EQ(dart::next_pow2(2), 2u);
  EXPECT_EQ(dart::next_pow2(3), 4u);
  EXPECT_EQ(dart::next_pow2(1024), 1024u);
  EXPECT_EQ(dart::next_pow2(1025), 2048u);
}

// ---------------------------------------------------------------------------
// SHS pitch detection

TEST(Shs, DetectsCleanTonePitch) {
  Rng rng{1};
  const auto tone = dart::synthesize_tone(220.0, 8000.0, 2048, 0.0, rng);
  const double detected =
      dart::detect_pitch(tone.samples, tone.sample_rate, {});
  EXPECT_NEAR(detected, 220.0, 5.0);
}

TEST(Shs, RobustToModerateNoise) {
  Rng rng{2};
  const auto tone = dart::synthesize_tone(330.0, 8000.0, 2048, 0.2, rng);
  const double detected =
      dart::detect_pitch(tone.samples, tone.sample_rate, {});
  EXPECT_NEAR(detected, 330.0, 8.0);
}

// Parameterized sweep over fundamentals: the kernel must track pitch
// across its range (property-style check on the science code).
class ShsPitchSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShsPitchSweep, TracksFundamental) {
  Rng rng{3};
  const double f0 = GetParam();
  const auto tone = dart::synthesize_tone(f0, 8000.0, 2048, 0.1, rng);
  dart::ShsParams params;
  params.harmonics = 7;
  const double detected =
      dart::detect_pitch(tone.samples, tone.sample_rate, params);
  EXPECT_NEAR(detected, f0, std::max(5.0, f0 * 0.02)) << "f0=" << f0;
}

INSTANTIATE_TEST_SUITE_P(Fundamentals, ShsPitchSweep,
                         ::testing::Values(90.0, 130.0, 200.0, 261.6, 329.6,
                                           440.0, 523.3));

TEST(Shs, SweepPointEvaluationIsDeterministic) {
  dart::ShsParams params;
  params.harmonics = 6;
  const auto a = dart::evaluate_sweep_point(params, 6, 5.0, 99);
  const auto b = dart::evaluate_sweep_point(params, 6, 5.0, 99);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_DOUBLE_EQ(a.mean_abs_error_hz, b.mean_abs_error_hz);
  EXPECT_EQ(a.tones_evaluated, 6);
}

TEST(Shs, MoreHarmonicsBeatSingleHarmonicOnNoisyCorpus) {
  // The point of the DART sweep: parameter settings matter. One harmonic
  // term degenerates to naive peak-picking, which octave-errs.
  dart::ShsParams one;
  one.harmonics = 1;
  dart::ShsParams many;
  many.harmonics = 8;
  const auto weak = dart::evaluate_sweep_point(one, 12, 5.0, 7);
  const auto strong = dart::evaluate_sweep_point(many, 12, 5.0, 7);
  EXPECT_GE(strong.correct, weak.correct);
}

// ---------------------------------------------------------------------------
// Workload generation

TEST(Workload, Generates306UniqueCommands) {
  const dart::DartConfig config;
  const auto commands = dart::generate_commands(config);
  EXPECT_EQ(commands.size(), 306u);
  const std::set<std::string> unique(commands.begin(), commands.end());
  EXPECT_EQ(unique.size(), 306u);
}

TEST(Workload, CommandsParseBack) {
  const dart::DartConfig config;
  for (const auto& command : dart::generate_commands(config)) {
    const auto params = dart::parse_command(command);
    EXPECT_GE(params.harmonics, 2);
    EXPECT_LE(params.harmonics, 19);
    EXPECT_GE(params.compression, 0.49);
    EXPECT_LE(params.compression, 0.99);
  }
  EXPECT_THROW((void)dart::parse_command("java -jar dart.jar"),
               stampede::common::EngineError);
}

TEST(Workload, PaperShapeCounts) {
  const dart::DartConfig config;  // 306 execs, 16 per bundle.
  EXPECT_EQ(dart::bundle_count(config), 20);
  EXPECT_EQ(dart::total_task_count(config), 367);  // Table I.
}

TEST(Workload, RootWorkflowStructure) {
  dart::DartConfig config;
  config.total_executions = 20;
  config.tasks_per_bundle = 8;
  const auto root = dart::build_root_workflow(config);
  // splitter + 3 bundles (8+8+4).
  EXPECT_EQ(root->task_count(), 4u);
  int bundles = 0;
  for (stampede::triana::TaskIndex i = 0; i < root->task_count(); ++i) {
    if (root->task(i).subgraph) {
      ++bundles;
      // Bundle: range task + execs + zipper.
      const auto& sub = *root->task(i).subgraph;
      EXPECT_GE(sub.task_count(), 6u);
    }
  }
  EXPECT_EQ(bundles, 3);
}

TEST(Workload, BundleGraphWiring) {
  dart::DartConfig config;
  const auto bundle =
      dart::build_bundle("b0", {"java -jar dart.jar -shs -h 3 -c 0.70 -i x"},
                         0, config);
  // range task (index 0) → exec0 (2) → zipper (1).
  ASSERT_EQ(bundle->task_count(), 3u);
  EXPECT_EQ(bundle->task(0).name, "0-0");
  EXPECT_EQ(bundle->task(1).name, "zipper");
  EXPECT_EQ(bundle->task(2).name, "exec0");
  EXPECT_FALSE(bundle->has_cycle());
}

// ---------------------------------------------------------------------------
// End-to-end experiment (scaled down for test speed)

namespace {

dart::DartConfig small_config() {
  dart::DartConfig config;
  config.total_executions = 24;
  config.tasks_per_bundle = 8;
  config.exec_cpu_mean = 4.0;
  config.exec_cpu_sd = 0.5;
  config.tones_per_task = 2;
  return config;
}

}  // namespace

TEST(DartExperiment, SmallRunLoadsCleanArchive) {
  db::Database archive;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  const auto result =
      dart::run_dart_experiment(small_config(), archive, options);

  EXPECT_EQ(result.status, 0);
  EXPECT_GT(result.wall_seconds(), 0.0);
  EXPECT_EQ(result.cloud_stats.bundles_completed, 3u);
  EXPECT_EQ(result.loader_stats.events_invalid, 0u);
  EXPECT_EQ(result.loader_stats.events_dropped, 0u);
  EXPECT_GT(result.root_wf_id, 0);

  // 4 workflows: root + 3 bundles.
  EXPECT_EQ(archive.row_count("workflow"), 4u);
  // Tasks: 1 splitter + 3 submits + 24 execs + 3 ranges + 3 zippers = 34.
  EXPECT_EQ(archive.row_count("task"), 34u);
  EXPECT_EQ(archive.row_count("job"), 34u);  // Triana is 1:1.
  EXPECT_EQ(archive.row_count("invocation"), 34u);
}

TEST(DartExperiment, StatisticsMatchWorkloadShape) {
  db::Database archive;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  const auto result =
      dart::run_dart_experiment(small_config(), archive, options);

  const query::QueryInterface q{archive};
  const query::StampedeStatistics stats{q};
  const auto s = stats.summary(result.root_wf_id);
  EXPECT_EQ(s.tasks.total(), 34);
  EXPECT_EQ(s.tasks.succeeded, 34);
  EXPECT_EQ(s.jobs.total(), 34);
  EXPECT_EQ(s.sub_workflows.total(), 3);
  EXPECT_EQ(s.sub_workflows.succeeded, 3);
  EXPECT_GT(s.workflow_wall_time, 0.0);
  // Parallel execution: cumulative exceeds wall.
  EXPECT_GT(s.cumulative_job_wall_time, s.workflow_wall_time);

  // Per-bundle progress series exist and are monotone.
  const auto progress = stats.progress(result.root_wf_id);
  ASSERT_EQ(progress.size(), 3u);
  for (const auto& series : progress) {
    ASSERT_FALSE(series.points.empty());
    for (std::size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].wall_clock, series.points[i - 1].wall_clock);
      EXPECT_GE(series.points[i].cumulative_runtime,
                series.points[i - 1].cumulative_runtime);
    }
  }
}

TEST(DartExperiment, ExecRuntimesShowProcessorSharingDilation) {
  db::Database archive;
  dart::DartConfig config = small_config();
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  options.cloud.slots_per_node = 4;
  const auto result = dart::run_dart_experiment(config, archive, options);

  const query::QueryInterface q{archive};
  const query::StampedeStatistics stats{q};
  // Look at one bundle's breakdown: exec runtimes should be dilated well
  // beyond their ~4 s nominal CPU (4 tasks share 1 core → ~4×).
  const auto children = q.children_of(result.root_wf_id);
  ASSERT_FALSE(children.empty());
  const auto rows = stats.breakdown(children.front().wf_id);
  double exec_mean = 0.0;
  int execs = 0;
  for (const auto& row : rows) {
    if (row.transformation.rfind("exec", 0) == 0) {
      exec_mean += row.mean;
      ++execs;
    }
  }
  ASSERT_GT(execs, 0);
  exec_mean /= execs;
  EXPECT_GT(exec_mean, config.exec_cpu_mean * 1.5);
}

TEST(DartExperiment, FailureInjectionSurfacesInAnalyzer) {
  db::Database archive;
  dart::DartConfig config = small_config();
  config.failure_rate = 0.25;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  const auto result = dart::run_dart_experiment(config, archive, options);
  EXPECT_EQ(result.status, -1);

  const query::QueryInterface q{archive};
  const query::StampedeAnalyzer analyzer{q};
  const auto levels = analyzer.drill_down(result.root_wf_id);
  ASSERT_GE(levels.size(), 2u);  // Root + at least one failed bundle.
  bool found_exec_failure = false;
  for (std::size_t i = 1; i < levels.size(); ++i) {
    for (const auto& failure : levels[i].failures) {
      if (failure.job_name.find("exec") != std::string::npos) {
        found_exec_failure = true;
        EXPECT_FALSE(failure.stderr_text.empty());
      }
    }
  }
  EXPECT_TRUE(found_exec_failure);
}

TEST(DartExperiment, RetainedBpLogReplaysIdentically) {
  const auto path = std::filesystem::temp_directory_path() /
                    "stampede_test_dart_retained.bp";
  std::filesystem::remove(path);
  db::Database live_archive;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  options.retain_log_path = path.string();
  const auto result =
      dart::run_dart_experiment(small_config(), live_archive, options);
  ASSERT_EQ(result.status, 0);

  // Replay the retained plain-text log into a second archive — the §VII-A
  // post-mortem path — and compare row counts.
  db::Database replay_archive;
  stampede::orm::create_stampede_schema(replay_archive);
  stampede::loader::StampedeLoader loader{replay_archive};
  const auto pump_stats = stampede::loader::load_file(path.string(), loader);
  EXPECT_EQ(pump_stats.parse_errors, 0u);
  for (const auto& table :
       {"workflow", "task", "task_edge", "job", "job_edge", "job_instance",
        "jobstate", "invocation"}) {
    EXPECT_EQ(replay_archive.row_count(table), live_archive.row_count(table))
        << table;
  }
  std::filesystem::remove(path);
}

// The dashboard pages of a real archive are the planner's oracle: the
// ORM's secondary indexes let statistics and analyzer queries start from
// the selective side (semi-join reduction, index joins), while an
// index-free copy of the same rows can only scan and hash-join. Every
// page must render byte-identically either way.
TEST(DartExperiment, PagesRenderIdenticallyWithoutSecondaryIndexes) {
  db::Database indexed;
  dart::DartConfig config = small_config();
  config.total_executions = 48;
  config.failure_rate = 0.25;
  dart::DartExperimentOptions options;
  options.cloud.nodes = 3;
  (void)dart::run_dart_experiment(config, indexed, options);

  db::Database scan_only;
  for (const auto& table : indexed.table_names()) {
    db::TableDef def = indexed.table_def(table);
    def.indexes.clear();
    scan_only.create_table(def);
    indexed.for_each_row(table, [&](db::RowId, const db::Row& row) {
      db::NamedValues values;
      for (std::size_t c = 0; c < def.columns.size(); ++c) {
        values.emplace_back(def.columns[c].name, row[c]);
      }
      scan_only.insert(table, values);
    });
  }

  const auto render_pages = [](const db::Database& archive) {
    const query::QueryInterface q{archive};
    const query::StampedeStatistics stats{q};
    const query::StampedeAnalyzer analyzer{q};
    std::vector<std::string> pages;
    const auto ids = archive.execute(
        db::Select{"workflow"}.columns({"wf_id"}).order_by("wf_id"));
    for (const auto& row : ids.rows) {
      const std::int64_t wf = row[0].as_int();
      pages.push_back(
          query::StampedeStatistics::render_summary(stats.summary(wf)) +
          query::StampedeStatistics::render_jobs_invocations(stats.jobs(wf)) +
          query::StampedeAnalyzer::render(analyzer.analyze(wf)));
    }
    return pages;
  };
  auto& semi_joins = stampede::telemetry::registry().counter(
      "stampede_db_plan_semi_join_total");
  const auto semi0 = semi_joins.value();
  const auto with_indexes = render_pages(indexed);
  const auto semi1 = semi_joins.value();
  const auto without = render_pages(scan_only);

  ASSERT_EQ(with_indexes.size(), 7u);  // Root + 48 / 8 bundles.
  ASSERT_EQ(with_indexes.size(), without.size());
  for (std::size_t i = 0; i < with_indexes.size(); ++i) {
    EXPECT_EQ(with_indexes[i], without[i]) << "workflow #" << i;
  }
  EXPECT_GT(semi1, semi0);
  EXPECT_EQ(semi_joins.value(), semi1);  // No index, no reduction.
}

// ---------------------------------------------------------------------------
// Continuous-mode experiment (§V-A future work)

#include "dart/continuous.hpp"

TEST(ContinuousExperiment, StreamsChunksAsInvocations) {
  db::Database archive;
  dart::ContinuousConfig config;
  config.chunks = 16;
  config.filter_stages = 2;
  const auto result = dart::run_continuous_experiment(config, archive);

  EXPECT_EQ(result.status, 0);
  EXPECT_EQ(result.loader_stats.events_invalid, 0u);
  // 4 jobs (source + 2 filters + detector), each with 16 invocations.
  EXPECT_EQ(result.jobs, 4);
  EXPECT_EQ(result.invocations, 4 * 16);
  EXPECT_EQ(archive.row_count("job_instance"), 4u);
  EXPECT_EQ(archive.row_count("invocation"), 64u);

  // The job:1 / invocation:N relationship in the archive.
  const auto per_job = archive.execute(
      db::Select{"invocation"}
          .group_by({"job_instance_id"})
          .count_all("n"));
  ASSERT_EQ(per_job.size(), 4u);
  for (std::size_t i = 0; i < per_job.size(); ++i) {
    EXPECT_EQ(per_job.at(i, "n").as_int(), 16);
  }
}

TEST(ContinuousExperiment, DetectorTracksTheStreamPitch) {
  db::Database archive;
  dart::ContinuousConfig config;
  config.chunks = 8;
  config.source_f0 = 261.6;  // Middle C.
  const auto result = dart::run_continuous_experiment(config, archive);
  EXPECT_EQ(result.status, 0);
  EXPECT_NEAR(result.mean_detected_pitch, 261.6, 8.0);
}

TEST(ContinuousExperiment, InvocationSequencesAreOrdered) {
  db::Database archive;
  dart::ContinuousConfig config;
  config.chunks = 6;
  config.filter_stages = 1;
  const auto result = dart::run_continuous_experiment(config, archive);
  ASSERT_EQ(result.status, 0);
  const auto rs = archive.execute(
      db::Select{"invocation"}
          .columns({"job_instance_id", "task_submit_seq", "start_time"})
          .order_by("job_instance_id")
          .order_by("task_submit_seq"));
  // Within each job instance, later invocation seq → later start time.
  for (std::size_t i = 1; i < rs.size(); ++i) {
    if (rs.at(i, "job_instance_id").as_int() !=
        rs.at(i - 1, "job_instance_id").as_int()) {
      continue;
    }
    EXPECT_EQ(rs.at(i, "task_submit_seq").as_int(),
              rs.at(i - 1, "task_submit_seq").as_int() + 1);
    EXPECT_GE(rs.at(i, "start_time").as_number(),
              rs.at(i - 1, "start_time").as_number());
  }
}

// ---------------------------------------------------------------------------
// Meta-workflow (§VI: the root workflow is generated at runtime)

#include "bus/rabbit_appender.hpp"
#include "loader/nl_load.hpp"
#include "triana/trianacloud.hpp"

TEST(MetaWorkflow, GeneratesRootAtRuntimeAndRunsThreeLevels) {
  dart::DartConfig config;
  config.total_executions = 16;
  config.tasks_per_bundle = 8;
  config.exec_cpu_mean = 3.0;
  config.tones_per_task = 2;

  db::Database archive;
  stampede::orm::create_stampede_schema(archive);
  stampede::bus::Broker broker;
  stampede::bus::RabbitAppender appender{broker, "monitoring"};
  broker.declare_queue("stampede");
  broker.bind("stampede", "monitoring", "stampede.#");
  stampede::loader::StampedeLoader loader{archive};
  stampede::loader::QueuePump pump{broker, "stampede", loader};
  pump.start();

  stampede::sim::EventLoop loop{1339840800.0};
  stampede::common::Rng rng{5};
  stampede::common::UuidGenerator uuids{5};
  const auto meta_uuid = uuids.next();
  stampede::triana::CloudOptions copts;
  copts.nodes = 2;
  stampede::triana::TrianaCloud cloud{loop, rng,        appender,
                                      uuids, meta_uuid, copts};
  stampede::sim::PsNode localhost{loop, "localhost", 64, 64.0};

  auto meta = dart::build_meta_workflow(config);
  stampede::triana::StampedeLog meta_log{appender,
                                         {meta_uuid, {}, {}, "DART-meta"}};
  stampede::triana::Scheduler meta_sched{loop, rng, localhost, *meta};
  meta_sched.add_listener(meta_log);

  // The generated root runs on the user's machine; its bundles go to the
  // cloud. Keep the per-level machinery alive until the loop drains.
  std::vector<std::unique_ptr<stampede::triana::Scheduler>> roots;
  std::vector<std::unique_ptr<stampede::triana::StampedeLog>> logs;
  meta_sched.set_subworkflow_handler(
      [&](stampede::triana::TaskIndex, stampede::triana::TaskGraph& root,
          stampede::triana::Data,
          std::function<void(stampede::sim::SimTime, int)> done) {
        const auto root_uuid = uuids.next();
        logs.push_back(std::make_unique<stampede::triana::StampedeLog>(
            appender, stampede::triana::StampedeLog::Identity{
                          root_uuid, meta_uuid, meta_uuid, root.name()}));
        roots.push_back(std::make_unique<stampede::triana::Scheduler>(
            loop, rng, localhost, root));
        roots.back()->add_listener(*logs.back());
        cloud.attach(*roots.back(), root_uuid);
        auto* raw = roots.back().get();
        loop.schedule_in(0, [raw, done = std::move(done)]() mutable {
          raw->start([done = std::move(done)](stampede::sim::SimTime t,
                                              int s) { done(t, s); });
        });
        return root_uuid;
      });

  int status = -1;
  meta_sched.start([&](stampede::sim::SimTime, int s) { status = s; });
  loop.run();
  ASSERT_TRUE(pump.wait_until_drained(10000));
  pump.stop();

  EXPECT_EQ(status, 0);
  EXPECT_EQ(loader.stats().events_invalid, 0u);
  EXPECT_EQ(loader.stats().events_dropped, 0u);

  // Three levels: meta + root + 2 bundles = 4 workflows.
  EXPECT_EQ(archive.row_count("workflow"), 4u);
  const query::QueryInterface q{archive};
  const auto meta_info = q.workflow_by_uuid(meta_uuid.to_string());
  ASSERT_TRUE(meta_info.has_value());
  const auto tree = q.workflow_tree(meta_info->wf_id);
  EXPECT_EQ(tree.size(), 4u);

  // Aggregated statistics across the whole hierarchy: 16 execs + aux.
  const query::StampedeStatistics stats{q};
  const auto s = stats.summary(meta_info->wf_id);
  // meta: 2 tasks; root: 1 splitter + 2 submits; bundles: 16 + 2×2 aux.
  EXPECT_EQ(s.tasks.total(), 2 + 3 + 16 + 4);
  EXPECT_EQ(s.sub_workflows.total(), 3);  // root + 2 bundles.
  EXPECT_EQ(s.tasks.failed, 0);
}
