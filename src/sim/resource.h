#ifndef WATTDB_SIM_RESOURCE_H_
#define WATTDB_SIM_RESOURCE_H_

#include <cstdint>
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
///
/// Layout: the timeline is a vector of leaves in time order. A leaf holds
/// up to `kLeafCapacity` sorted, disjoint `{start, end}` intervals in one
/// contiguous array, plus a summary: its first start, last end, largest
/// internal gap (between two of its own intervals) and busy sum. Intervals
/// that touch are coalesced, across leaf boundaries too, exactly where a
/// single sorted interval set would coalesce them; this keeps `Prune`, which
/// drops whole intervals, exact.
///
/// Cost per operation, with n retained intervals and L = n / leaf-fill
/// leaves:
///  - `Acquire`/`Peek`: a binary search for the leaf that holds `arrival`
///    (skipped for arrivals in the last leaf), then one summary check per
///    leaf whose internal gap and boundary gap are both shorter than
///    `service`; only the leaf that holds the fitting gap is scanned entry
///    by entry. `Acquire` books the slot where the search found it, and
///    splits a full leaf in O(leaf capacity + L).
///  - `Backlog`/`BusyIn`: one locate, then whole-leaf busy sums.
///  - `Prune`: drops whole leaves, then trims the first survivor.
///
/// Contract: first-fit is exact. Every call returns what walking a single
/// sorted, coalesced interval set one interval at a time would return,
/// before and after any `Prune`; the leaves only let whole runs of
/// too-small gaps be skipped.
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
    return leaves_.empty() ? 0 : leaves_.back().last;
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

  /// Timeline steps taken so far: leaf summaries plus interval entries
  /// examined by every query and reservation. Deterministic, so benches
  /// can gate search work without timing it.
  uint64_t steps() const { return steps_; }

  const std::string& name() const { return name_; }

 private:
  friend class ResourcePool;

  static constexpr size_t kLeafCapacity = 64;

  struct Interval {
    SimTime start;
    SimTime end;
  };
  struct Leaf {
    SimTime first = 0;    ///< iv.front().start.
    SimTime last = 0;     ///< iv.back().end.
    SimTime max_gap = 0;  ///< Largest iv[i + 1].start - iv[i].end.
    SimTime busy = 0;     ///< Sum of end - start over iv.
    std::vector<Interval> iv;  ///< Sorted, disjoint, coalesced; never empty.
  };
  /// Where `t` falls: `leaf` is the last leaf whose first start is <= t (0
  /// when none is), `pos` the first interval in it starting after t.
  struct Position {
    size_t leaf;
    size_t pos;
  };

  /// A free gap's start, and where an interval starting there goes.
  struct Slot {
    SimTime start;
    Position at;  ///< Locate(start).
  };

  /// Find the first gap of >= `service` at/after `arrival`.
  Slot FindSlot(SimTime arrival, SimTime service) const;
  /// Book [slot.start, slot.start + service), found by FindSlot on the
  /// unchanged timeline; returns its end.
  SimTime Insert(const Slot& slot, SimTime service);
  Position Locate(SimTime t) const;
  /// Recompute `leaf`'s summary from its intervals.
  static void Summarize(Leaf& leaf);

  std::string name_;
  SimTime total_busy_ = 0;
  mutable uint64_t steps_ = 0;
  std::vector<Leaf> leaves_;
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
