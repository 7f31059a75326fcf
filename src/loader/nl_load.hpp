#pragma once
// nl_load: the NetLogger Toolkit loader front-end (paper §IV-E).
//
// Reads a stream of BP messages from a file or an AMQP queue and hands
// each to a loader module (here: StampedeLoader). Mirrors the paper's
// command line:
//
//   nl_load --amqp-host=... -A queue=stampede stampede_loader
//       connString=mysql://.../mydb
//
// The file path corresponds to replaying retained plain-text logs, and
// the queue path to real-time loading while the workflow runs (§VII-A).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "bus/ibus.hpp"
#include "loader/event_sink.hpp"
#include "loader/sharded_loader.hpp"
#include "loader/stampede_loader.hpp"
#include "netlogger/parser.hpp"

namespace stampede::loader {

struct NlLoadStats {
  std::uint64_t lines = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t messages = 0;
  double wall_seconds = 0.0;  ///< Real time spent in the pump.

  [[nodiscard]] double events_per_second() const noexcept {
    return wall_seconds > 0 ? static_cast<double>(messages) / wall_seconds
                            : 0.0;
  }
};

/// Replays a BP log file into `sink` synchronously, then finish()es it:
/// one StampedeLoader inline, a ShardedLoader's per-shard lanes, or a
/// cluster Router forwarding to remote shard hosts. Returns pump
/// statistics; loader-level outcomes are on the sink's stats().
NlLoadStats load_file(const std::string& path, EventSink& sink);

/// Parses BP text from any istream into `sink` (for tests/pipes).
NlLoadStats load_stream(std::istream& in, EventSink& sink);

/// Real-time loader pump attached to an AMQP queue. Runs on its own
/// thread; messages are acked only after the loader's transaction
/// holding their rows has committed (ack-after-commit), so a crash at
/// any point redelivers rather than loses — and the loader's replay
/// dedup makes the redelivery idempotent (at-least-once end to end).
/// When the stream goes idle the pump flushes the loader so trailing
/// acks are not held hostage by a partially filled batch.
class QueuePump {
 public:
  /// Consumes `queue` from any IBus — the in-process Broker or a
  /// net::BusClient reaching a broker in another process; the pump is
  /// transport-agnostic. The pump thread feeds each message to `sink`
  /// (a StampedeLoader, ShardedLoader lanes or a cluster Router).
  QueuePump(bus::IBus& bus, std::string queue, EventSink& sink);

  ~QueuePump();
  QueuePump(const QueuePump&) = delete;
  QueuePump& operator=(const QueuePump&) = delete;

  /// Begins consuming.
  void start();

  /// Stops after draining everything currently in the queue; flushes the
  /// loader. Idempotent.
  void stop();

  /// Blocks until the queue is observed empty (all published messages
  /// consumed) or `timeout_ms` elapsed. Returns true when drained.
  bool wait_until_drained(int timeout_ms);

  [[nodiscard]] NlLoadStats stats() const;

 private:
  void pump(const std::stop_token& stop);

  bus::IBus* broker_;
  std::string queue_;
  EventSink* sink_;
  std::jthread worker_;
  mutable std::mutex stats_mutex_;
  NlLoadStats stats_;
  std::atomic<bool> started_{false};
};

}  // namespace stampede::loader
