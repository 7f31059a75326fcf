// nl_load_cli — the command-line face of nl_load (paper §IV-E):
//
//   nl_load_cli [options] <bp-log-file> <archive-path>
//
// Replays a retained plain-text NetLogger BP log into a WAL-backed
// Stampede archive (created if absent, appended otherwise) and prints
// loading statistics. The archive file can then be explored with
// stampede_statistics_cli / stampede_analyzer_cli — the same
// file-interchange workflow as the paper's
//   nl_load ... stampede_loader connString=sqlite:///test.db
//
// Options:
//   --metrics-port=N     serve GET /metrics (Prometheus), GET /selfz
//                        (JSON), GET /tracez + /trace/{id} (distributed
//                        tracing) and GET /healthz + /readyz (probes) on
//                        127.0.0.1:N while loading; with N=0 an
//                        ephemeral port is chosen and printed
//   --trace-sample=R     head-sample fraction R (0..1) of locally rooted
//                        traces (default 0.01); propagated contexts on
//                        arriving messages are honored regardless
//   --stats-interval=S   every S seconds emit a self-telemetry snapshot
//                        as stampede.loader.stats.* BP lines on stderr
//   --shards=N           partition the archive into N shards loaded by N
//                        parallel lanes (WAL files <archive>.0..N-1);
//                        N=1 (default) keeps the classic single-file
//                        archive bit-compatible with earlier releases
//   --compact-interval=MS  sweep cold rows into columnar segments every
//                        MS milliseconds while loading (db::Compactor,
//                        DESIGN.md §15); 0 (default) disables
//                        compaction. Results are byte-identical either
//                        way — segments only accelerate scans
//
// Networked modes (one positional: the archive; the BP stream arrives
// over TCP instead of from a file — the paper's real-time deployment
// with the broker on the wire, DESIGN.md "Network substrate"):
//   --listen=PORT        host the message bus: start an in-process
//                        broker + net::BusServer on 127.0.0.1:PORT
//                        (0 = ephemeral, printed) and pump the
//                        "stampede" queue into the archive; publishers
//                        connect with stampede_publish_cli
//   --connect=HOST:PORT  attach to a remote bus as a consumer: pump the
//                        "stampede" queue over TCP into the archive
//   --net-workers=N      with --listen: spread connections over N
//                        event-loop workers (DESIGN.md §12; default 1)
//   --idle-exit=S        in the networked modes, exit once messages have
//                        been seen and none arrived for S seconds
//                        (default 10)
//
// Distributed mode (DESIGN.md §14 — the archive lives on shard-host
// processes, this process is the scatter-gather router):
//   --router=SPEC        route events to a fleet of stampede_shard_cli
//                        processes instead of a local archive. SPEC
//                        names every shard's placement, e.g.
//                        "0,1@h1:7401/h1:7411;2,3@h2:7402" (the /addr
//                        is an optional follower replica promoted on
//                        primary failure). Takes the BP log positional
//                        (no archive path — the fleet owns the WALs);
//                        composes with --listen/--connect, where the
//                        bus queue is pumped into the router. With
//                        --metrics-port the endpoint also serves
//                        /clusterz, and /readyz reports per-shard-host
//                        connectivity.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bus/broker.hpp"
#include "cluster/cluster_routes.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"
#include "dashboard/http_server.hpp"
#include "db/compactor.hpp"
#include "db/query.hpp"
#include "dashboard/telemetry_routes.hpp"
#include "dashboard/trace_routes.hpp"
#include "loader/nl_load.hpp"
#include "net/bus_client.hpp"
#include "net/bus_server.hpp"
#include "netlogger/formatter.hpp"
#include "orm/stampede_tables.hpp"
#include "telemetry/self_stats.hpp"
#include "telemetry/tracer.hpp"

using namespace stampede;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics-port=N] [--stats-interval=SECONDS] "
               "[--shards=N] [--compact-interval=MS] [--trace-sample=R] "
               "<bp-log-file> <archive-path>\n"
               "       %s [--shards=N] [--idle-exit=SECONDS] "
               "[--trace-sample=R] [--net-workers=N] "
               "(--listen=PORT | --connect=HOST:PORT) <archive-path>\n"
               "       %s --router=SPEC [--metrics-port=N] "
               "[--trace-sample=R] <bp-log-file>\n"
               "       %s --router=SPEC [--idle-exit=SECONDS] "
               "[--net-workers=N] (--listen=PORT | --connect=HOST:PORT)\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::optional<double> parse_flag_value(const char* arg, const char* name) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(arg + len + 1, &end);
  if (end == arg + len + 1 || *end != '\0' || value < 0) {
    std::fprintf(stderr, "error: bad value in '%s'\n", arg);
    std::exit(2);
  }
  return value;
}

/// What /readyz reports (DESIGN.md §11): the archive is open, the queue
/// pump is running when one is expected, and — in --connect mode — the
/// bus client currently holds a live connection.
struct ReadyState {
  std::atomic<bool> archive_open{false};
  std::atomic<bool> pump_required{false};
  std::atomic<bool> pump_running{false};
  std::atomic<net::BusClient*> bus_client{nullptr};

  [[nodiscard]] bool ready() const {
    if (!archive_open.load(std::memory_order_acquire)) return false;
    if (pump_required.load(std::memory_order_acquire) &&
        !pump_running.load(std::memory_order_acquire)) {
      return false;
    }
    if (auto* client = bus_client.load(std::memory_order_acquire)) {
      return client->connected();
    }
    return true;
  }
};

}  // namespace

/// Polls the pump until messages have flowed and then stayed still for
/// `idle_exit_s` seconds.
void wait_for_idle(loader::QueuePump& pump, double idle_exit_s) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t last_seen = 0;
  auto last_change = Clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto messages = pump.stats().messages;
    if (messages != last_seen) {
      last_seen = messages;
      last_change = Clock::now();
      continue;
    }
    if (last_seen > 0 &&
        std::chrono::duration<double>(Clock::now() - last_change).count() >=
            idle_exit_s) {
      return;
    }
  }
}

int main(int argc, char** argv) {
  std::optional<int> metrics_port;
  std::optional<double> stats_interval;
  std::optional<int> listen_port;
  std::string connect_addr;
  std::string router_spec;
  double idle_exit_s = 10.0;
  std::size_t shards = 1;
  std::size_t net_workers = 1;
  std::uint64_t compact_interval_ms = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (const auto v = parse_flag_value(argv[i], "--metrics-port")) {
      metrics_port = static_cast<int>(*v);
    } else if (const auto v = parse_flag_value(argv[i], "--stats-interval")) {
      stats_interval = *v;
    } else if (const auto v = parse_flag_value(argv[i], "--listen")) {
      listen_port = static_cast<int>(*v);
    } else if (const auto v = parse_flag_value(argv[i], "--idle-exit")) {
      idle_exit_s = *v;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_addr = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--router=", 9) == 0) {
      router_spec = argv[i] + 9;
    } else if (const auto v = parse_flag_value(argv[i], "--net-workers")) {
      net_workers = static_cast<std::size_t>(*v);
      if (net_workers == 0) {
        std::fprintf(stderr, "error: --net-workers must be >= 1\n");
        return 2;
      }
    } else if (const auto v = parse_flag_value(argv[i], "--trace-sample")) {
      if (*v > 1.0) {
        std::fprintf(stderr, "error: --trace-sample wants 0..1\n");
        return 2;
      }
      telemetry::Tracer::instance().set_sample_rate(*v);
    } else if (const auto v = parse_flag_value(argv[i], "--shards")) {
      shards = static_cast<std::size_t>(*v);
      if (shards == 0) {
        std::fprintf(stderr, "error: --shards must be >= 1\n");
        return 2;
      }
    } else if (const auto v = parse_flag_value(argv[i], "--compact-interval")) {
      compact_interval_ms = static_cast<std::uint64_t>(*v);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const bool networked = listen_port.has_value() || !connect_addr.empty();
  if (listen_port && !connect_addr.empty()) {
    std::fprintf(stderr, "error: --listen and --connect are exclusive\n");
    return 2;
  }
  const bool routed = !router_spec.empty();
  if (routed && shards != 1) {
    std::fprintf(stderr,
                 "error: --router and --shards are exclusive (the cluster "
                 "spec fixes the shard count)\n");
    return 2;
  }
  const std::size_t want_positional =
      routed ? (networked ? 0u : 1u) : (networked ? 1u : 2u);
  if (positional.size() != want_positional) return usage(argv[0]);
  const std::string log_path = networked ? std::string{} : positional[0];
  const std::string archive_path =
      routed ? std::string{} : (networked ? positional[0] : positional[1]);

  // Distributed mode: connect the router to every shard host up front
  // (bounded, jittered retries per link) — before the metrics server so
  // /clusterz and the cluster-aware /readyz can be registered.
  std::unique_ptr<cluster::Router> router;
  if (routed) {
    try {
      router = std::make_unique<cluster::Router>(
          cluster::ShardMap::parse(router_spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "cluster : %zu shards across %zu hosts\n",
                 router->shard_count(), router->status().size());
  }

  // Exposition endpoint: scrape while the replay runs (real-time
  // self-monitoring), and after it finishes until the process exits.
  // Declared after `ready` so the route lambdas never outlive the
  // state they probe.
  ReadyState ready;
  std::unique_ptr<dash::HttpServer> metrics_server;
  if (metrics_port) {
    try {
      metrics_server = std::make_unique<dash::HttpServer>(*metrics_port);
      dash::register_telemetry_routes(*metrics_server);
      dash::register_trace_routes(*metrics_server);
      if (router) {
        cluster::register_cluster_routes(*metrics_server, *router);
      } else {
        dash::register_health_routes(*metrics_server,
                                     [&ready] { return ready.ready(); });
      }
      metrics_server->start();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot serve metrics on port %d: %s\n",
                   *metrics_port, e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "metrics : http://127.0.0.1:%d/metrics (and /selfz, "
                 "/tracez, /readyz)\n",
                 metrics_server->port());
  }

  // Periodic self-stat snapshots as BP events on stderr — the same
  // records a bus deployment would publish to stampede.loader.stats.*.
  std::unique_ptr<telemetry::SelfStatsEmitter> emitter;
  if (stats_interval && *stats_interval > 0) {
    emitter = std::make_unique<telemetry::SelfStatsEmitter>(
        telemetry::registry(), *stats_interval, [](const nl::LogRecord& r) {
          std::fprintf(stderr, "%s\n", nl::format_record(r).c_str());
        });
    emitter->start();
  }

  try {
    loader::NlLoadStats stats;
    loader::LoaderStats ls;
    std::size_t n_workflows = 0, n_jobs = 0, n_invocations = 0;
    std::unique_ptr<db::Database> single_archive;
    std::unique_ptr<db::ShardedDatabase> sharded_archive;
    std::unique_ptr<loader::StampedeLoader> single_loader;
    std::unique_ptr<loader::ShardedLoader> sharded_loader;
    // A routed fleet's archives live on the shard hosts; the router
    // already holds a live link to each.
    loader::EventSink* sink = router.get();
    if (!routed && shards == 1) {
      single_archive = orm::open_archive(archive_path);
      single_loader = std::make_unique<loader::StampedeLoader>(*single_archive);
      sink = single_loader.get();
    } else if (!routed) {
      sharded_archive = orm::open_sharded_archive(archive_path, shards);
      sharded_loader =
          std::make_unique<loader::ShardedLoader>(*sharded_archive);
      sink = sharded_loader.get();
    }
    ready.archive_open.store(true, std::memory_order_release);

    // Background columnar compaction racing the load (local modes only;
    // a routed fleet compacts on the shard hosts via their own flag).
    std::unique_ptr<db::Compactor> compactor;
    if (compact_interval_ms > 0 && !routed) {
      db::CompactorOptions copts;
      copts.interval_ms = compact_interval_ms;
      if (single_archive) {
        compactor = std::make_unique<db::Compactor>(*single_archive, copts);
      } else {
        compactor = std::make_unique<db::Compactor>(*sharded_archive, copts);
      }
      std::fprintf(stderr, "compact : every %llu ms\n",
                   static_cast<unsigned long long>(compact_interval_ms));
    }

    if (networked) {
      // The bus endpoint: either host the broker here (--listen) or
      // reach one in another process (--connect).
      std::unique_ptr<bus::Broker> broker;
      std::unique_ptr<net::BusServer> server;
      std::unique_ptr<net::BusClient> client;
      bus::IBus* bus = nullptr;
      if (listen_port) {
        broker = std::make_unique<bus::Broker>();
        net::BusServerOptions server_options;
        server_options.port = *listen_port;
        server_options.workers = net_workers;
        server = std::make_unique<net::BusServer>(*broker, server_options);
        server->start();
        std::fprintf(stderr, "bus     : listening on 127.0.0.1:%d\n",
                     server->port());
        bus = broker.get();
      } else {
        const auto colon = connect_addr.rfind(':');
        if (colon == std::string::npos) {
          std::fprintf(stderr, "error: --connect wants HOST:PORT\n");
          return 2;
        }
        net::BusClientOptions client_options;
        client_options.host = connect_addr.substr(0, colon);
        client_options.port = std::atoi(connect_addr.c_str() + colon + 1);
        client = std::make_unique<net::BusClient>(client_options);
        if (!client->wait_connected(10'000)) {
          std::fprintf(stderr, "error: cannot reach bus at %s\n",
                       connect_addr.c_str());
          return 1;
        }
        bus = client.get();
        ready.bus_client.store(client.get(), std::memory_order_release);
      }
      // Publisher-compatible topology (idempotent on both sides).
      bus->declare_exchange("monitoring", bus::ExchangeType::kTopic);
      bus->declare_queue("stampede");
      bus->bind("stampede", "monitoring", "stampede.#");

      loader::QueuePump pump{*bus, "stampede", *sink};
      ready.pump_required.store(true, std::memory_order_release);
      pump.start();
      ready.pump_running.store(true, std::memory_order_release);
      wait_for_idle(pump, idle_exit_s);
      pump.stop();
      ready.pump_running.store(false, std::memory_order_release);
      ready.bus_client.store(nullptr, std::memory_order_release);
      stats = pump.stats();
    } else {
      stats = loader::load_file(log_path, *sink);
    }

    std::vector<cluster::HostShardStats> shard_stats;
    if (router) {
      // Fleet accounting: per-shard loader stats over kClusterStats and
      // entity counts via remote COUNT(*) scatter (each row lives in
      // exactly one shard, so the sum is the total).
      for (std::size_t i = 0; i < router->shard_count(); ++i) {
        shard_stats.push_back(router->remote_stats(i));
        const auto& remote = shard_stats.back().loader;
        ls.events_loaded += remote.events_loaded;
        ls.events_invalid += remote.events_invalid;
        ls.events_unknown += remote.events_unknown;
        ls.events_dropped += remote.events_dropped;
      }
      const auto count_rows = [&](const std::string& table) {
        db::Select select{table};
        select.count_all("n");
        std::size_t total = 0;
        for (std::size_t i = 0; i < router->shard_count(); ++i) {
          const db::ResultSet result = router->backend().execute_on(i, select);
          total += static_cast<std::size_t>(result.at(0, "n").as_int());
        }
        return total;
      };
      n_workflows = count_rows("workflow");
      n_jobs = count_rows("job");
      n_invocations = count_rows("invocation");
    } else if (single_loader) {
      ls = single_loader->stats();
      n_workflows = single_archive->row_count("workflow");
      n_jobs = single_archive->row_count("job");
      n_invocations = single_archive->row_count("invocation");
    } else {
      ls = sharded_loader->stats();
      n_workflows = sharded_archive->row_count("workflow");
      n_jobs = sharded_archive->row_count("job");
      n_invocations = sharded_archive->row_count("invocation");
    }
    if (emitter) emitter->stop();  // Emits the final snapshot.
    std::printf("read    : %llu lines (%llu parse errors)\n",
                static_cast<unsigned long long>(stats.lines),
                static_cast<unsigned long long>(stats.parse_errors));
    std::printf("loaded  : %llu events (%llu invalid, %llu unknown, "
                "%llu dropped)\n",
                static_cast<unsigned long long>(ls.events_loaded),
                static_cast<unsigned long long>(ls.events_invalid),
                static_cast<unsigned long long>(ls.events_unknown),
                static_cast<unsigned long long>(ls.events_dropped));
    std::printf("rate    : %.0f events/s\n", stats.events_per_second());
    std::printf("archive : %s (%zu workflows, %zu jobs, %zu invocations)\n",
                routed ? router_spec.c_str() : archive_path.c_str(),
                n_workflows, n_jobs, n_invocations);
    if (router) {
      std::vector<std::string> shard_addr(router->shard_count());
      for (const auto& placement : router->status()) {
        for (const std::size_t shard : placement.shards) {
          shard_addr[shard] = placement.addr.to_string() +
                              (placement.failed_over ? " (failed over)" : "");
        }
      }
      for (std::size_t i = 0; i < shard_stats.size(); ++i) {
        std::printf("shard %-2zu: %llu events @ %s (%llu torn WAL records "
                    "tolerated)\n",
                    i,
                    static_cast<unsigned long long>(
                        shard_stats[i].loader.events_loaded),
                    shard_addr[i].c_str(),
                    static_cast<unsigned long long>(
                        shard_stats[i].wal_truncated));
      }
    }
    if (sharded_loader) {
      for (std::size_t i = 0; i < sharded_loader->lane_count(); ++i) {
        const auto& lane = sharded_loader->lane_stats(i);
        std::printf(
            "lane %-3zu: %llu events -> %s (%zu workflows)\n", i,
            static_cast<unsigned long long>(lane.events_loaded),
            db::ShardedDatabase::shard_wal_path(archive_path, i, shards)
                .c_str(),
            sharded_archive->shard(i).row_count("workflow"));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
