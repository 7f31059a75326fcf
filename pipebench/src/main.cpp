// pipebench — the repository's end-to-end pipeline benchmark.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--set key=value ...] [--work-dir DIR] [--spans FILE]
//
// Workloads: fleet_replay, live_monitor, dashboard_read, cluster_replay
// (see pipebench/README.md). With --trace 0 the result line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// the layers the workload exercises, and the spans recorded around each
// layer call are written to --spans.
// The last stdout line is the JSON result; the line before it holds the
// run's metadata and the sample count behind every metric.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "harness.hpp"
#include "telemetry/tracer.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--set key=value ...] [--work-dir DIR] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pipebench;
  std::string workload;
  RunContext ctx;
  std::string work_root = ".bench_tmp";
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = ctx.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        ctx.trace = value == "1";
        have_trace = true;
      } else if (arg == "--set") {
        const auto eq = value.find('=');
        if (eq == std::string::npos) return usage();
        ctx.params.set(value.substr(0, eq), value.substr(eq + 1));
      } else if (arg == "--work-dir") {
        work_root = value;
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const std::map<std::string, std::function<void(RunContext&)>> workloads = {
      {"fleet_replay", run_fleet_replay},
      {"live_monitor", run_live_monitor},
      {"dashboard_read", run_dashboard_read},
      {"cluster_replay", run_cluster_replay},
  };
  const auto it = workloads.find(workload);
  if (it == workloads.end() || !have_seed || !have_seconds || !have_trace) return usage();

  // The program's own head-sampled tracing stays off: its spans would be
  // extra work in every measured run.
  stampede::telemetry::Tracer::instance().set_sample_rate(0.0);

  Result result;
  SpanLog spans{ctx.trace};
  ctx.result = &result;
  ctx.spans = &spans;
  ctx.work_dir = (std::filesystem::path{work_root} /
                  (workload + "-" + std::to_string(::getpid())))
                     .string();
  int status = 0;
  try {
    std::filesystem::remove_all(ctx.work_dir);
    std::filesystem::create_directories(ctx.work_dir);
    {
      ScopedSpan span{spans, workload};
      it->second(ctx);
    }
    if (ctx.trace) {
      result.metric("bench.error_frac",
                    result.attempted() > 0 ? static_cast<double>(result.failed()) /
                                                 static_cast<double>(result.attempted())
                                           : 0.0,
                    "ratio", result.attempted());
      if (!spans_path.empty()) spans.write(spans_path);
    }
    result.meta("workload", json_string(workload));
    result.meta("seed", std::to_string(ctx.seed));
    result.meta("seconds", std::to_string(ctx.seconds));
    result.meta("trace", ctx.trace ? "true" : "false");
    result.meta("hardware_concurrency", std::to_string(std::thread::hardware_concurrency()));
    result.meta("build_type", json_string(PIPEBENCH_BUILD_TYPE));
    result.meta("compiler", json_string(PIPEBENCH_COMPILER));
    result.meta("lanes", "2");
    result.meta("spans", std::to_string(spans.size()));
    std::string params = "{";
    for (const auto& [k, v] : ctx.params.all()) {
      if (params.size() > 1) params += ", ";
      params += json_string(k) + ": " + json_string(v);
    }
    result.meta("params", params + "}");
    result.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s failed: %s\n", workload.c_str(), e.what());
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);
  return status;
}
