#ifndef WATTDB_SIM_RESOURCE_H_
#define WATTDB_SIM_RESOURCE_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace wattdb::sim {

/// A serially-used hardware resource (disk arm, NIC link, CPU core) modeled
/// as a timeline of busy intervals. A request arriving at `arrival` with
/// service time `service` is placed into the earliest gap of length
/// `service` that starts at or after `arrival`.
///
/// Gap-filling matters because requests do NOT arrive in chronological
/// order: each simulated transaction carries its own clock and may reserve
/// resource time "in the future", while a transaction whose event fires
/// later may need the resource at an earlier instant. First-fit gap
/// allocation keeps the model deterministic and close to FCFS without the
/// false serialization a single `free_at` cursor would impose.
///
/// Busy intervals are retained (and pruned on demand) so callers can sample
/// windowed utilization, which feeds the power model.
class Resource {
 public:
  explicit Resource(std::string name = "") : name_(std::move(name)) {}

  /// Reserve `service` us starting no earlier than `arrival`. Returns the
  /// completion time.
  SimTime Acquire(SimTime arrival, SimTime service);

  /// Completion time a request would see, without reserving.
  SimTime Peek(SimTime arrival, SimTime service) const;

  /// End of the last scheduled interval (0 when idle).
  SimTime LastBusyEnd() const {
    return intervals_.empty() ? 0 : intervals_.rbegin()->second;
  }

  /// Outstanding scheduled work beyond `now` (load heuristic).
  SimTime Backlog(SimTime now) const;

  /// Busy microseconds inside the window [from, to).
  SimTime BusyIn(SimTime from, SimTime to) const;

  /// Fraction of [from, to) the resource was busy.
  double UtilizationIn(SimTime from, SimTime to) const;

  /// Drop interval bookkeeping that ends at or before `before`.
  void Prune(SimTime before);

  /// Total busy time ever scheduled.
  SimTime TotalBusy() const { return total_busy_; }

  const std::string& name() const { return name_; }

 private:
  /// Find the first gap of >= `service` at/after `arrival`; returns start.
  SimTime FindSlot(SimTime arrival, SimTime service) const;

  std::string name_;
  SimTime total_busy_ = 0;
  /// start -> end, non-overlapping, coalesced where adjacent.
  std::map<SimTime, SimTime> intervals_;
};

/// A pool of `k` identical resources (e.g. CPU cores). Requests are routed
/// to the member that can complete them first.
class ResourcePool {
 public:
  ResourcePool(std::string name, int count);

  SimTime Acquire(SimTime arrival, SimTime service);
  SimTime Peek(SimTime arrival, SimTime service) const;

  SimTime BusyIn(SimTime from, SimTime to) const;
  double UtilizationIn(SimTime from, SimTime to) const;
  void Prune(SimTime before);

  /// Outstanding work beyond `now` on the least-loaded member.
  SimTime Backlog(SimTime now) const;

  int size() const { return static_cast<int>(members_.size()); }
  const std::string& name() const { return name_; }

  /// Member `i` (0 <= i < size()): for work pinned to one core, bypassing
  /// the least-loaded routing of Acquire.
  Resource& member(int i) { return members_.at(i); }
  const Resource& member(int i) const { return members_.at(i); }

 private:
  std::string name_;
  std::vector<Resource> members_;
};

}  // namespace wattdb::sim

#endif  // WATTDB_SIM_RESOURCE_H_
