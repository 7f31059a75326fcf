// Unit tests for the ORM layer: Stampede schema DDL and the batching
// unit-of-work session.

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "orm/session.hpp"
#include "orm/stampede_tables.hpp"

namespace orm = stampede::orm;
namespace db = stampede::db;
using db::Value;

// ---------------------------------------------------------------------------
// Schema

TEST(StampedeSchema, CreatesAllElevenTables) {
  db::Database d;
  orm::create_stampede_schema(d);
  for (const auto& name : orm::stampede_table_names()) {
    EXPECT_TRUE(d.has_table(name)) << name;
  }
  EXPECT_EQ(orm::stampede_table_names().size(), 11u);
}

TEST(StampedeSchema, RecordsSchemaVersion) {
  db::Database d;
  orm::create_stampede_schema(d);
  const auto v = d.scalar(db::Select{"schema_info"}.columns({"version"}));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), orm::kSchemaVersion);
}

TEST(StampedeSchema, WorkflowUuidIsUnique) {
  db::Database d;
  orm::create_stampede_schema(d);
  d.insert("workflow", {{"wf_uuid", Value{"u-1"}}});
  EXPECT_THROW(d.insert("workflow", {{"wf_uuid", Value{"u-1"}}}),
               stampede::common::DbError);
}

TEST(StampedeSchema, ForeignKeysAreDeclared) {
  db::Database d;
  orm::create_stampede_schema(d);
  const auto& ji = d.table_def("job_instance");
  ASSERT_FALSE(ji.foreign_keys.empty());
  bool job_fk = false;
  for (const auto& fk : ji.foreign_keys) {
    if (fk.column == "job_id" && fk.ref_table == "job") job_fk = true;
  }
  EXPECT_TRUE(job_fk);
}

TEST(StampedeSchema, EntityChainInsertsLikeTheLoaderDoes) {
  // workflow → job → job_instance → jobstate/invocation, the Fig. 3 chain.
  db::Database d;
  orm::create_stampede_schema(d);
  const auto wf = d.insert("workflow", {{"wf_uuid", Value{"u-chain"}}});
  const auto job = d.insert(
      "job", {{"wf_id", Value{wf}}, {"exec_job_id", Value{"exec0"}}});
  const auto ji = d.insert("job_instance", {{"job_id", Value{job}},
                                            {"job_submit_seq", Value{1}}});
  d.insert("jobstate", {{"job_instance_id", Value{ji}},
                        {"state", Value{"SUBMIT"}},
                        {"timestamp", Value{1.0}}});
  d.insert("invocation", {{"job_instance_id", Value{ji}},
                          {"wf_id", Value{wf}},
                          {"task_submit_seq", Value{1}},
                          {"exitcode", Value{0}}});
  // Join across the whole chain.
  const auto rs = d.execute(db::Select{"invocation"}
                                .join("job_instance", "job_instance_id",
                                      "job_instance_id")
                                .join("job", "job_instance.job_id", "job_id")
                                .join("workflow", "job.wf_id", "wf_id")
                                .columns({"workflow.wf_uuid",
                                          "job.exec_job_id"}));
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.at(0, "workflow.wf_uuid").as_text(), "u-chain");
  EXPECT_EQ(rs.at(0, "job.exec_job_id").as_text(), "exec0");
}

// ---------------------------------------------------------------------------
// Session

TEST(Session, BatchesUntilThresholdThenFlushes) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, /*batch_size=*/4};
  for (int i = 0; i < 3; ++i) {
    session.add("workflow",
                {{"wf_uuid", Value{"u-" + std::to_string(i)}}});
  }
  EXPECT_EQ(session.pending(), 3u);
  EXPECT_EQ(d.row_count("workflow"), 0u);  // Not yet visible.
  session.add("workflow", {{"wf_uuid", Value{"u-3"}}});
  EXPECT_EQ(session.pending(), 0u);  // Threshold reached → flushed.
  EXPECT_EQ(d.row_count("workflow"), 4u);
  EXPECT_EQ(session.stats().flush_batches, 1u);
}

TEST(Session, ExplicitFlush) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, 100};
  session.add("workflow", {{"wf_uuid", Value{"u-a"}}});
  session.flush();
  EXPECT_EQ(d.row_count("workflow"), 1u);
  session.flush();  // Idempotent on empty queue.
  EXPECT_EQ(session.stats().flush_batches, 1u);
}

TEST(Session, AddReservesKeysInQueueOrder) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, 100};
  // Each table draws from its own sequence, in the order rows are queued.
  const auto wf1 = session.add("workflow", {{"wf_uuid", Value{"u-1"}}});
  const auto job1 = session.add(
      "job", {{"wf_id", Value{wf1}}, {"exec_job_id", Value{"j1"}}});
  const auto wf2 = session.add("workflow", {{"wf_uuid", Value{"u-2"}}});
  const auto job2 = session.add(
      "job", {{"wf_id", Value{wf2}}, {"exec_job_id", Value{"j2"}}});
  EXPECT_EQ(wf1, 1);
  EXPECT_EQ(job1, 1);
  EXPECT_EQ(wf2, 2);
  EXPECT_EQ(job2, 2);
  // Reserved, not written: nothing is visible before the flush.
  EXPECT_EQ(d.row_count("workflow"), 0u);
  EXPECT_EQ(d.row_count("job"), 0u);
  session.flush();
  const auto job2_wf = d.scalar(db::Select{"job"}
                                    .where(db::eq("job_id", Value{job2}))
                                    .columns({"wf_id"}));
  ASSERT_TRUE(job2_wf.has_value());
  EXPECT_EQ(job2_wf->as_int(), wf2);
  const auto wf2_uuid = d.scalar(db::Select{"workflow"}
                                     .where(db::eq("wf_id", Value{wf2}))
                                     .columns({"wf_uuid"}));
  ASSERT_TRUE(wf2_uuid.has_value());
  EXPECT_EQ(wf2_uuid->as_text(), "u-2");

  // A batch that rolls back leaves its keys unused, exactly as the same
  // inserts made directly inside a rolled-back transaction do.
  EXPECT_EQ(session.add("workflow", {{"wf_uuid", Value{"u-3"}}}), 3);
  EXPECT_EQ(session.add("workflow", {{"wf_uuid", Value{"u-1"}}}), 4);  // Dup.
  EXPECT_THROW(session.flush(), stampede::common::DbError);
  session.discard();
  EXPECT_EQ(session.add("workflow", {{"wf_uuid", Value{"u-5"}}}), 5);
  session.flush();

  db::Database direct;
  orm::create_stampede_schema(direct);
  direct.insert("workflow", {{"wf_uuid", Value{"u-1"}}});
  direct.insert("workflow", {{"wf_uuid", Value{"u-2"}}});
  direct.begin();
  direct.insert("workflow", {{"wf_uuid", Value{"u-3"}}});
  EXPECT_THROW(direct.insert("workflow", {{"wf_uuid", Value{"u-1"}}}),
               stampede::common::DbError);
  direct.rollback();
  EXPECT_EQ(direct.insert("workflow", {{"wf_uuid", Value{"u-5"}}}), 5);
  EXPECT_EQ(d.row_count("workflow"), direct.row_count("workflow"));
}

TEST(Session, QueuedUpdatePkAppliesInOrder) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, 100};
  const auto wf = session.add("workflow", {{"wf_uuid", Value{"u-x"}}});
  session.add_update_pk("workflow", wf, {{"dax_label", Value{"first"}}});
  session.add_update_pk("workflow", wf, {{"dax_label", Value{"second"}}});
  session.flush();
  const auto v = d.scalar(db::Select{"workflow"}
                              .where(db::eq("wf_id", Value{wf}))
                              .columns({"dax_label"}));
  EXPECT_EQ(v->as_text(), "second");
}

TEST(Session, DestructorFlushes) {
  db::Database d;
  orm::create_stampede_schema(d);
  {
    orm::Session session{d, 100};
    session.add("workflow", {{"wf_uuid", Value{"u-dtor"}}});
  }
  EXPECT_EQ(d.row_count("workflow"), 1u);
}

TEST(Session, FlushIsTransactionalOnFailure) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, 100};
  session.add("workflow", {{"wf_uuid", Value{"dup"}}});
  session.add("workflow", {{"wf_uuid", Value{"dup"}}});  // Unique violation.
  EXPECT_THROW(session.flush(), stampede::common::DbError);
  // The whole batch rolled back — not even the first row landed.
  EXPECT_EQ(d.row_count("workflow"), 0u);
}

TEST(Session, StatsCountQueuedAndFlushed) {
  db::Database d;
  orm::create_stampede_schema(d);
  orm::Session session{d, 2};
  session.add("workflow", {{"wf_uuid", Value{"a"}}});
  session.add("workflow", {{"wf_uuid", Value{"b"}}});
  session.add("workflow", {{"wf_uuid", Value{"c"}}});
  session.flush();
  EXPECT_EQ(session.stats().queued, 3u);
  EXPECT_EQ(session.stats().flushed_ops, 3u);
  EXPECT_EQ(session.stats().flush_batches, 2u);
}
