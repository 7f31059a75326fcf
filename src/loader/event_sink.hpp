#pragma once
// The dispatcher-facing loading surface (DESIGN.md §2/§14).
//
// A file replayer or QueuePump drives "something that loads BP events
// and acks after commit": one StampedeLoader inline, a ShardedLoader's
// lanes, or the cluster query router (which forwards the same calls to
// remote shard-host lanes). This interface is that contract — the
// paper's loader-module seam (§IV-E) — so the pumps are written once.

#include <cstdint>
#include <functional>

#include "netlogger/record.hpp"
#include "telemetry/trace.hpp"

namespace stampede::loader {

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Routes one event (blocking on backpressure). Returns false once
  /// the sink is finished (a StampedeLoader also returns false for an
  /// event it rejected or deferred). Call from ONE dispatcher thread
  /// only.
  virtual bool process(const nl::LogRecord& record,
                       const telemetry::TraceStamps* trace = nullptr,
                       bool redelivered = false, std::uint64_t ack_tag = 0) = 0;

  /// Receives each event's ack_tag once its rows are durably committed
  /// (or it produced none). May fire on internal worker threads.
  virtual void set_ack_callback(std::function<void(std::uint64_t)> cb) = 0;

  /// Idle-stream nudge: commit pending batches and release held acks.
  virtual void flush_hint() = 0;

  /// Terminal: flush everything and reject further events.
  virtual void finish() = 0;
};

}  // namespace stampede::loader
