#pragma once
// The four benchmark workloads. Each one generates its fleet from the
// seed, sets the system up (timed as setup_s, several times), measures
// for the requested seconds, checks the program's outputs, and fills a
// Result with either the end-to-end metrics or the per-layer metrics of
// the layers it exercises.

#include <cstdint>
#include <map>
#include <string>

#include "harness.hpp"

namespace pipebench {

/// key=value workload parameters. pipebench/workloads.json is their
/// only source: a parameter a workload reads and the run was not given
/// is an error, not a default.
class Params {
 public:
  void set(const std::string& key, const std::string& value) { kv_[key] = value; }
  [[nodiscard]] bool has(const std::string& key) const { return kv_.count(key) != 0; }
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& all() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Working space for archives; removed after.
  Params params;
  SpanLog* spans = nullptr;
  Result* result = nullptr;
};

void run_fleet_replay(RunContext& ctx);
void run_live_monitor(RunContext& ctx);
void run_dashboard_read(RunContext& ctx);
void run_cluster_replay(RunContext& ctx);

}  // namespace pipebench
