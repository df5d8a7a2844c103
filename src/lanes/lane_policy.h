#ifndef WATTDB_LANES_LANE_POLICY_H_
#define WATTDB_LANES_LANE_POLICY_H_

#include "common/types.h"

namespace wattdb::lanes {

/// Intra-node parallel data plane (KVell-style): each core of a node's
/// CPU pool (`NodeHardwareSpec::cpu_cores` of them) is a shared-nothing
/// worker lane owning a shard of the node's segments. A single-segment op
/// runs entirely on its owning lane's core — lock-free by construction, no
/// cross-lane coordination — and cross-lane batches group per lane and run
/// the groups in parallel, exactly how `RoutedMulti*` groups per owner node
/// one level up. Work with no segment affinity still goes to the
/// least-loaded core. Lane work is core work, so it counts toward CPU
/// utilisation, watts, and the master's CPU triggers.
///
/// Segment ownership is what separates a lane from the pool's default
/// least-loaded routing (work stealing): a hot lane stays hot until the
/// balancer re-lanes a segment, so skew is visible as lane imbalance the
/// master can fix locally.
///
/// Default-off: with `enabled == false` all CPU work goes to the
/// least-loaded core and nothing else in the system changes. Validated at
/// Db::Open even when disabled (the repo-wide policy convention).
struct LanePolicy {
  bool enabled = false;

  /// Intra-node lane balancing: when the master's heat tier fires on a
  /// node, re-lane hot segments between that node's lanes (cheap, no
  /// network) before considering a cross-node move.
  bool balance_lanes = true;
  /// Hottest lane vs mean lane heat before re-laning is worthwhile.
  double lane_trigger_ratio = 1.5;
  /// Re-lane at most this many segments per balancing round.
  int max_relanes_per_round = 4;
  /// Per-segment cooldown between re-lanes, against lane ping-pong.
  SimTime relane_cooldown = 10 * kUsPerSec;
};

}  // namespace wattdb::lanes

#endif  // WATTDB_LANES_LANE_POLICY_H_
