#include "orm/session.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace stampede::orm {

namespace {

struct OrmTelemetry {
  telemetry::Counter& flushed_ops =
      telemetry::registry().counter("stampede_orm_flushed_ops_total");
  telemetry::Counter& flush_batches =
      telemetry::registry().counter("stampede_orm_flush_batches_total");
  telemetry::Histogram& flush_latency = telemetry::registry().histogram(
      "stampede_orm_flush_latency_seconds");
  // Operations per committed batch; bucket layout sized for row counts
  // (1 .. ~32k) rather than latencies.
  telemetry::Histogram& flush_batch_ops = telemetry::registry().histogram(
      "stampede_orm_flush_batch_ops", {1.0, 2.0, 16});
};

OrmTelemetry& orm_telemetry() {
  static OrmTelemetry instance;
  return instance;
}

}  // namespace

Session::~Session() {
  try {
    flush();
  } catch (...) {
    // A destructor must not throw; pending rows are lost, which mirrors
    // an uncommitted SQLAlchemy session being garbage-collected.
  }
}

const std::string& Session::primary_key(const std::string& table) {
  auto it = primary_keys_.find(table);
  if (it == primary_keys_.end()) {
    it = primary_keys_.emplace(table, db_->table_def(table).primary_key).first;
  }
  return it->second;
}

std::int64_t Session::add(std::string table, db::NamedValues values) {
  std::int64_t key = 0;
  if (const std::string& pk = primary_key(table); !pk.empty()) {
    key = db_->reserve_pk(table);
    values.emplace_back(pk, db::Value{key});
  }
  pending_.emplace_back(InsertOp{std::move(table), std::move(values)});
  ++stats_.queued;
  if (pending_.size() >= batch_size_) flush();
  return key;
}

void Session::add_update_pk(std::string table, std::int64_t pk,
                            db::NamedValues sets) {
  pending_.emplace_back(UpdatePkOp{std::move(table), pk, std::move(sets)});
  ++stats_.queued;
  if (pending_.size() >= batch_size_) flush();
}

void Session::flush() {
  if (pending_.empty()) return;
  auto& tele = orm_telemetry();
  const double start = telemetry::trace_now();
  auto span = telemetry::SpanGuard::root("orm.commit");
  span.attr("ops", std::to_string(pending_.size()));
  db_->begin();
  try {
    for (const auto& op : pending_) {
      if (const auto* ins = std::get_if<InsertOp>(&op)) {
        db_->insert(ins->table, ins->values);
      } else {
        const auto& upd = std::get<UpdatePkOp>(op);
        db_->update_pk(upd.table, upd.pk, upd.sets);
      }
    }
    db_->commit();
  } catch (...) {
    db_->rollback();
    span.set_error();
    throw;
  }
  const std::size_t ops = pending_.size();
  stats_.flushed_ops += ops;
  ++stats_.flush_batches;
  pending_.clear();
  if (start > 0.0) {
    tele.flush_latency.observe(telemetry::now() - start);
    tele.flush_batch_ops.observe(static_cast<double>(ops));
  }
  tele.flushed_ops.inc(ops);
  tele.flush_batches.inc();
  if (commit_hook_) commit_hook_(ops);
}

std::size_t Session::update(const std::string& table,
                            const db::ExprPtr& predicate,
                            const db::NamedValues& sets) {
  flush();
  return db_->update(table, predicate, sets);
}

}  // namespace stampede::orm
