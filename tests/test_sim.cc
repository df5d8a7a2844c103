// Unit tests for the simulation substrate: virtual clock, deterministic
// event queue, and gap-filling resource timelines (including a differential
// check of the leaf timeline against a plain sorted-map reference).

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/resource.h"

namespace wattdb::sim {
namespace {

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock c;
  EXPECT_EQ(c.Now(), 0);
  c.AdvanceTo(100);
  EXPECT_EQ(c.Now(), 100);
}

TEST(EventQueue, RunsInTimeOrder) {
  Clock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAt(30, [&]() { order.push_back(3); });
  q.ScheduleAt(10, [&]() { order.push_back(1); });
  q.ScheduleAt(20, [&]() { order.push_back(2); });
  q.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  Clock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(50, [&order, i]() { order.push_back(i); });
  }
  q.RunUntil(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PastEventsClampToNow) {
  Clock clock;
  EventQueue q(&clock);
  clock.AdvanceTo(100);
  bool ran = false;
  q.ScheduleAt(10, [&]() { ran = true; });
  EXPECT_EQ(q.NextEventTime(), 100);
  q.RunUntil(100);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  Clock clock;
  EventQueue q(&clock);
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) q.ScheduleAfter(10, recurse);
  };
  q.ScheduleAt(0, recurse);
  q.RunUntil(1000);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents) {
  Clock clock;
  EventQueue q(&clock);
  bool late = false;
  q.ScheduleAt(200, [&]() { late = true; });
  q.RunUntil(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(clock.Now(), 100);
  q.RunUntil(300);
  EXPECT_TRUE(late);
}

TEST(Resource, SimpleFcfs) {
  Resource r;
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);   // Queues behind the first.
  EXPECT_EQ(r.Acquire(50, 10), 60);  // Idle gap before it.
}

TEST(Resource, GapFilling) {
  Resource r;
  // Occupy [100, 200).
  EXPECT_EQ(r.Acquire(100, 100), 200);
  // A later-issued request for an EARLIER time fits in the gap [0, 100).
  EXPECT_EQ(r.Acquire(0, 50), 50);
  // And one that does not fit before 100 goes after 200.
  EXPECT_EQ(r.Acquire(60, 80), 280);
}

TEST(Resource, GapExactFit) {
  Resource r;
  r.Acquire(0, 10);    // [0,10)
  r.Acquire(20, 10);   // [20,30)
  EXPECT_EQ(r.Acquire(10, 10), 20);  // Exactly fills [10,20).
  // Now fully busy [0,30): next goes at 30.
  EXPECT_EQ(r.Acquire(0, 5), 35);
}

TEST(Resource, ZeroServiceIsFree) {
  Resource r;
  r.Acquire(0, 100);
  EXPECT_EQ(r.Acquire(50, 0), 50);
}

TEST(Resource, BusyInWindows) {
  Resource r;
  r.Acquire(10, 20);  // [10, 30)
  r.Acquire(50, 10);  // [50, 60)
  EXPECT_EQ(r.BusyIn(0, 100), 30);
  EXPECT_EQ(r.BusyIn(0, 20), 10);
  EXPECT_EQ(r.BusyIn(25, 55), 10);
  EXPECT_DOUBLE_EQ(r.UtilizationIn(0, 100), 0.3);
}

TEST(Resource, TotalBusyAccumulates) {
  Resource r;
  r.Acquire(0, 5);
  r.Acquire(0, 7);
  EXPECT_EQ(r.TotalBusy(), 12);
}

TEST(Resource, PruneDropsOldIntervalsOnly) {
  Resource r;
  r.Acquire(0, 10);
  r.Acquire(100, 10);
  r.Prune(50);
  EXPECT_EQ(r.BusyIn(0, 50), 0);    // Forgotten.
  EXPECT_EQ(r.BusyIn(50, 200), 10); // Retained.
}

TEST(Resource, BacklogMeasuresFutureWork) {
  Resource r;
  r.Acquire(0, 100);
  EXPECT_EQ(r.Backlog(40), 60);
  EXPECT_EQ(r.Backlog(100), 0);
}

TEST(Resource, PeekDoesNotReserve) {
  Resource r;
  EXPECT_EQ(r.Peek(0, 10), 10);
  EXPECT_EQ(r.Peek(0, 10), 10);  // Still free.
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Peek(0, 10), 20);
}

TEST(Resource, CoalescesAdjacentIntervals) {
  Resource r;
  for (int i = 0; i < 1000; ++i) r.Acquire(0, 1);
  // All contiguous: still a single busy block [0, 1000).
  EXPECT_EQ(r.BusyIn(0, 1000), 1000);
  EXPECT_EQ(r.Acquire(0, 1), 1001);
}

TEST(ResourcePool, ParallelismAcrossMembers) {
  ResourcePool pool("cpu", 2);
  EXPECT_EQ(pool.Acquire(0, 10), 10);  // Core 0.
  EXPECT_EQ(pool.Acquire(0, 10), 10);  // Core 1, in parallel.
  EXPECT_EQ(pool.Acquire(0, 10), 20);  // Queues on the earliest-free core.
}

TEST(ResourcePool, UtilizationAveragesMembers) {
  ResourcePool pool("cpu", 2);
  pool.Acquire(0, 100);  // One core busy [0, 100).
  EXPECT_DOUBLE_EQ(pool.UtilizationIn(0, 100), 0.5);
}

TEST(ResourcePool, PicksEarliestCompletion) {
  ResourcePool pool("cpu", 2);
  pool.Acquire(0, 100);           // Core 0 busy till 100.
  EXPECT_EQ(pool.Acquire(0, 5), 5);  // Lands on core 1.
}

// Reference timeline: one std::map of coalesced busy intervals, walked one
// interval at a time. This is the straightforward implementation the leaf
// timeline must match call for call.
class MapTimeline {
 public:
  SimTime Acquire(SimTime arrival, SimTime service) {
    if (service == 0) return arrival;
    const SimTime start = FindSlot(arrival, service);
    const SimTime end = start + service;
    total_busy_ += service;
    SimTime lo = start, hi = end;
    auto it = intervals_.upper_bound(start);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second == start) {
        lo = prev->first;
        intervals_.erase(prev);
      }
    }
    it = intervals_.find(end);
    if (it != intervals_.end()) {
      hi = it->second;
      intervals_.erase(it);
    }
    intervals_[lo] = hi;
    return end;
  }

  SimTime Peek(SimTime arrival, SimTime service) const {
    return FindSlot(arrival, service) + service;
  }

  SimTime LastBusyEnd() const {
    return intervals_.empty() ? 0 : intervals_.rbegin()->second;
  }

  SimTime Backlog(SimTime now) const {
    SimTime busy = 0;
    auto it = intervals_.upper_bound(now);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > now) busy += prev->second - now;
    }
    for (; it != intervals_.end(); ++it) busy += it->second - it->first;
    return busy;
  }

  SimTime BusyIn(SimTime from, SimTime to) const {
    SimTime busy = 0;
    auto it = intervals_.upper_bound(from);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > from) busy += std::min(prev->second, to) - from;
    }
    for (; it != intervals_.end() && it->first < to; ++it) {
      busy += std::min(it->second, to) - it->first;
    }
    return busy;
  }

  void Prune(SimTime before) {
    auto it = intervals_.begin();
    while (it != intervals_.end() && it->second <= before) {
      it = intervals_.erase(it);
    }
  }

  SimTime TotalBusy() const { return total_busy_; }
  const std::map<SimTime, SimTime>& intervals() const { return intervals_; }

 private:
  SimTime FindSlot(SimTime arrival, SimTime service) const {
    if (service <= 0) return arrival;
    SimTime candidate = arrival;
    auto it = intervals_.upper_bound(arrival);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > candidate) candidate = prev->second;
    }
    for (; it != intervals_.end(); ++it) {
      if (it->first >= candidate + service) break;
      if (it->second > candidate) candidate = it->second;
    }
    return candidate;
  }

  SimTime total_busy_ = 0;
  std::map<SimTime, SimTime> intervals_;
};

struct XorShift {
  uint64_t x;
  uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  SimTime Below(SimTime n) { return static_cast<SimTime>((*this)() % n); }
};

// Leaf boundaries: 64 separated intervals fill the first leaf, the 65th
// opens a second leaf, and filling the gap between them exactly coalesces
// across the boundary and empties the second leaf.
TEST(ResourceDifferential, CoalescesAcrossLeafBoundary) {
  Resource r;
  MapTimeline ref;
  for (SimTime i = 0; i <= 64; ++i) {
    ASSERT_EQ(r.Acquire(i * 10, 5), ref.Acquire(i * 10, 5));
  }
  // Exact fill of [635, 640): joins [630, 635) and [640, 645).
  ASSERT_EQ(r.Acquire(635, 5), ref.Acquire(635, 5));
  ASSERT_EQ(ref.intervals().rbegin()->first, 630);
  for (SimTime t = 0; t <= 700; t += 5) {
    ASSERT_EQ(r.Backlog(t), ref.Backlog(t)) << t;
    ASSERT_EQ(r.BusyIn(t, t + 17), ref.BusyIn(t, t + 17)) << t;
    ASSERT_EQ(r.Peek(t, 5), ref.Peek(t, 5)) << t;
  }
  // Pruning at the old end of the joined interval's left part keeps it
  // whole.
  r.Prune(640);
  ref.Prune(640);
  EXPECT_EQ(r.BusyIn(0, 1000), ref.BusyIn(0, 1000));
  EXPECT_EQ(r.BusyIn(0, 1000), 15);
  EXPECT_EQ(r.Acquire(600, 30), ref.Acquire(600, 30));
  EXPECT_EQ(r.LastBusyEnd(), ref.LastBusyEnd());
}

// Random mixed calls on the leaf timeline and the map reference; every
// return value must match exactly. Arrivals fall behind the frontier into
// a fragmented backlog, a share of acquires fill a gap exactly (coalescing
// both neighbours, sometimes across a leaf boundary, sometimes emptying a
// one-interval leaf), and Prune runs mid-run.
class ResourceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourceDifferentialTest, MatchesMapReferenceOnEveryCall) {
  Resource r;
  MapTimeline ref;
  XorShift rng{GetParam()};
  SimTime now = 0;
  SimTime max_retained = 0;
  constexpr int kCalls = 60000;
  for (int call = 0; call < kCalls; ++call) {
    const SimTime frontier = ref.LastBusyEnd();
    // Mostly arrive inside the standing backlog between now and frontier.
    const SimTime span = std::max<SimTime>(frontier - now, 1) + 200;
    // A few land in the retained history, where pruning shows.
    const SimTime arrival = rng() % 16 == 0 ? now - rng.Below(200000)
                                            : now + rng.Below(span);
    const uint64_t op = rng() % 100;
    if (op < 40) {
      const SimTime service =
          rng() % 4 == 0 ? rng.Below(200) + 1 : rng.Below(8) + 1;
      ASSERT_EQ(r.Acquire(arrival, service), ref.Acquire(arrival, service))
          << "call " << call;
    } else if (op < 50 && ref.intervals().size() > 1) {
      // Exact fill of the gap after a random retained interval.
      auto it = ref.intervals().upper_bound(arrival);
      if (it == ref.intervals().end()) it = ref.intervals().begin();
      auto next = std::next(it);
      if (next == ref.intervals().end()) continue;
      const SimTime start = it->second;
      const SimTime gap = next->first - start;
      ASSERT_EQ(r.Acquire(start, gap), ref.Acquire(start, gap))
          << "call " << call;
    } else if (op < 51) {
      // A run of separated appends past the frontier: fills whole leaves.
      for (int i = 0; i < 40; ++i) {
        const SimTime at = ref.LastBusyEnd() + rng.Below(3);
        const SimTime service = rng.Below(5) + 1;
        ASSERT_EQ(r.Acquire(at, service), ref.Acquire(at, service))
            << "call " << call;
      }
    } else if (op < 65) {
      const SimTime service = rng.Below(120);
      ASSERT_EQ(r.Peek(arrival, service), ref.Peek(arrival, service))
          << "call " << call;
    } else if (op < 75) {
      ASSERT_EQ(r.Backlog(arrival), ref.Backlog(arrival)) << "call " << call;
    } else if (op < 88) {
      // Includes empty and inverted windows (to <= from).
      const SimTime to = arrival + rng.Below(3000) - 600;
      ASSERT_EQ(r.BusyIn(arrival, to), ref.BusyIn(arrival, to))
          << "call " << call;
    } else if (op < 89) {
      // Prune somewhere in the retained history, often mid-leaf and often
      // exactly at an interval's end.
      SimTime before = now - 150000 - rng.Below(20000);
      auto it = ref.intervals().upper_bound(before);
      if (rng() % 2 == 0 && it != ref.intervals().end()) before = it->second;
      r.Prune(before);
      ref.Prune(before);
    } else {
      // Time moves on, chasing the frontier so the backlog stays bounded.
      now += rng.Below(40) + (frontier - now) / 32;
    }
    ASSERT_EQ(r.LastBusyEnd(), ref.LastBusyEnd()) << "call " << call;
    ASSERT_EQ(r.TotalBusy(), ref.TotalBusy()) << "call " << call;
    max_retained = std::max<SimTime>(max_retained, ref.intervals().size());
  }
  // Enough intervals that leaves split many times over.
  EXPECT_GT(max_retained, 2000);
  // The whole retained timeline agrees at the end, window by window.
  for (SimTime t = 0; t < ref.LastBusyEnd(); t += 97) {
    ASSERT_EQ(r.BusyIn(t, t + 97), ref.BusyIn(t, t + 97)) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceDifferentialTest,
                         ::testing::Values(3, 17, 2024, 48611));

// ResourcePool books the slot its winning member's search found; the picks
// and completions must match peeking every member, then acquiring on the
// earliest.
TEST(ResourceDifferential, PoolMatchesPerMemberReference) {
  ResourcePool pool("cpu", 3);
  std::vector<MapTimeline> ref(3);
  XorShift rng{99};
  SimTime now = 0;
  for (int call = 0; call < 20000; ++call) {
    const SimTime arrival = now + rng.Below(500);
    const SimTime service = rng.Below(60);
    size_t best = 0;
    for (size_t i = 1; i < ref.size(); ++i) {
      if (ref[i].Peek(arrival, service) < ref[best].Peek(arrival, service)) {
        best = i;
      }
    }
    ASSERT_EQ(pool.Peek(arrival, service), ref[best].Peek(arrival, service));
    ASSERT_EQ(pool.Acquire(arrival, service),
              ref[best].Acquire(arrival, service))
        << "call " << call;
    if (call % 1000 == 999) {
      pool.Prune(now - 300);
      for (auto& m : ref) m.Prune(now - 300);
    }
    SimTime least = ref[0].Backlog(now);
    for (const MapTimeline& m : ref) least = std::min(least, m.Backlog(now));
    ASSERT_EQ(pool.Backlog(now), least);
    now += rng.Below(20);
  }
}

// Property-style sweep: whatever the (deterministic pseudo-random) request
// pattern, intervals never overlap within one resource and total busy time
// is conserved.
class ResourcePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourcePropertyTest, NoOverlapAndConservation) {
  Resource r;
  uint64_t x = GetParam();
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  SimTime total = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime arrival = static_cast<SimTime>(next() % 10000);
    const SimTime service = static_cast<SimTime>(next() % 50 + 1);
    const SimTime done = r.Acquire(arrival, service);
    EXPECT_GE(done, arrival + service);
    total += service;
  }
  EXPECT_EQ(r.TotalBusy(), total);
  // Busy time within the full horizon equals the scheduled work.
  EXPECT_EQ(r.BusyIn(0, 1'000'000), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourcePropertyTest,
                         ::testing::Values(1, 7, 42, 12345, 999983));

}  // namespace
}  // namespace wattdb::sim
