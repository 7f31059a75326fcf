#pragma once
// The router's static view of where shards live (DESIGN.md §14).
//
// A cluster spec names every shard exactly once, grouped into
// placements — one shard-host process per placement, optionally backed
// by a follower replica:
//
//   "0,1@127.0.0.1:7401/127.0.0.1:7411;2,3@127.0.0.1:7402"
//
// placement := shard[,shard...]@host:port[/follower_host:follower_port]
// spec      := placement[;placement...]
//
// The map is fixed for the life of the router (no rebalancing): shard
// ownership must agree with the FNV-1a routing hash and the per-shard
// WAL files, so moving a shard means replaying its WAL elsewhere —
// which is exactly what failover to the follower does.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/socket.hpp"

namespace stampede::cluster {

/// Errors raised by cluster components (spec parsing, failover,
/// protocol violations). Link failures are net::LinkError.
class ClusterError : public common::StampedeError {
 public:
  using common::StampedeError::StampedeError;
};

using HostAddr = common::HostAddr;

/// Parses "host:port" (as used in cluster specs and --follower-addr).
/// Throws ClusterError on malformed input.
[[nodiscard]] HostAddr parse_addr(const std::string& text);

struct Placement {
  std::vector<std::size_t> shards;    ///< Global shard indexes served.
  HostAddr primary;
  std::optional<HostAddr> follower;   ///< Replica to promote on failure.
};

class ShardMap {
 public:
  /// Parses a cluster spec. Throws ClusterError unless every shard in
  /// [0, total) appears exactly once across the placements, where
  /// `total` is the highest shard index named plus one.
  [[nodiscard]] static ShardMap parse(const std::string& spec);

  [[nodiscard]] std::size_t total_shards() const noexcept { return total_; }
  [[nodiscard]] const std::vector<Placement>& placements() const noexcept {
    return placements_;
  }
  /// Index into placements() owning `shard`.
  [[nodiscard]] std::size_t placement_of(std::size_t shard) const {
    return owner_.at(shard);
  }

 private:
  std::vector<Placement> placements_;
  std::vector<std::size_t> owner_;  ///< shard -> placement index.
  std::size_t total_ = 0;
};

}  // namespace stampede::cluster
