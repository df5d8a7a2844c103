#include "sim/resource.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::sim {

Resource::Position Resource::Locate(SimTime t) const {
  if (leaves_.empty()) return {0, 0};
  // Arrivals at the frontier land in the last leaf: skip the search.
  ++steps_;
  size_t leaf = leaves_.size() - 1;
  if (leaves_.back().first > t) {
    auto it = std::upper_bound(leaves_.begin(), leaves_.end() - 1, t,
                               [this](SimTime v, const Leaf& l) {
                                 ++steps_;
                                 return v < l.first;
                               });
    leaf = it == leaves_.begin() ? 0 : (it - leaves_.begin()) - 1;
  }
  const std::vector<Interval>& iv = leaves_[leaf].iv;
  auto it = std::upper_bound(iv.begin(), iv.end(), t,
                             [this](SimTime v, const Interval& i) {
                               ++steps_;
                               return v < i.start;
                             });
  return {leaf, static_cast<size_t>(it - iv.begin())};
}

void Resource::Summarize(Leaf& leaf) {
  leaf.first = leaf.iv.front().start;
  leaf.last = leaf.iv.back().end;
  leaf.max_gap = 0;
  leaf.busy = 0;
  for (size_t i = 0; i < leaf.iv.size(); ++i) {
    leaf.busy += leaf.iv[i].end - leaf.iv[i].start;
    if (i > 0) {
      leaf.max_gap =
          std::max(leaf.max_gap, leaf.iv[i].start - leaf.iv[i - 1].end);
    }
  }
}

Resource::Slot Resource::FindSlot(SimTime arrival, SimTime service) const {
  if (service <= 0 || leaves_.empty()) return {arrival, {0, 0}};
  const Position p = Locate(arrival);
  // Start from the interval preceding `arrival` (it may cover it).
  const Leaf& home = leaves_[p.leaf];
  SimTime candidate = arrival;
  if (p.pos > 0) {
    candidate = std::max(candidate, home.iv[p.pos - 1].end);
  } else {
    // Only before the very first interval: a gap no summary covers.
    ++steps_;
    if (home.first >= candidate + service) return {candidate, p};
  }
  // The rest of this leaf: every gap left in it lies inside an internal
  // gap, so a too-small max_gap rules the whole leaf out.
  if (home.max_gap < service) {
    candidate = std::max(candidate, home.last);
  } else {
    for (size_t i = p.pos; i < home.iv.size(); ++i) {
      ++steps_;
      if (home.iv[i].start >= candidate + service) {
        return {candidate, {p.leaf, i}};  // Gap fits.
      }
      candidate = std::max(candidate, home.iv[i].end);
    }
  }
  // Later leaves: skip each one whose boundary gap and internal gaps are
  // all too small; scan only the leaf that holds the fitting gap.
  for (size_t k = p.leaf + 1; k < leaves_.size(); ++k) {
    const Leaf& leaf = leaves_[k];
    ++steps_;
    if (leaf.first >= candidate + service) {
      return {candidate, {k - 1, leaves_[k - 1].iv.size()}};
    }
    if (leaf.max_gap < service) {
      candidate = std::max(candidate, leaf.last);
      continue;
    }
    candidate = std::max(candidate, leaf.iv[0].end);
    for (size_t i = 1; i < leaf.iv.size(); ++i) {
      ++steps_;
      if (leaf.iv[i].start >= candidate + service) return {candidate, {k, i}};
      candidate = std::max(candidate, leaf.iv[i].end);
    }
  }
  return {candidate, {leaves_.size() - 1, leaves_.back().iv.size()}};
}

SimTime Resource::Acquire(SimTime arrival, SimTime service) {
  return Insert(FindSlot(arrival, service), service);
}

SimTime Resource::Insert(const Slot& slot, SimTime service) {
  WATTDB_CHECK(service >= 0);
  if (service == 0) return slot.start;
  const SimTime start = slot.start;
  const SimTime end = start + service;
  total_busy_ += service;
  if (leaves_.empty()) {
    leaves_.push_back(Leaf{start, end, 0, service, {{start, end}}});
    return end;
  }
  // Coalesce with the neighbors that touch [start, end). The successor may
  // be the first interval of the next leaf.
  const Position p = slot.at;
  Leaf& leaf = leaves_[p.leaf];
  const size_t next_leaf = p.pos < leaf.iv.size() ? p.leaf : p.leaf + 1;
  const size_t next_pos = p.pos < leaf.iv.size() ? p.pos : 0;
  Interval* prev = p.pos > 0 ? &leaf.iv[p.pos - 1] : nullptr;
  Interval* next = next_leaf < leaves_.size()
                       ? &leaves_[next_leaf].iv[next_pos]
                       : nullptr;
  const bool join_prev = prev != nullptr && prev->end == start;
  const bool join_next = next != nullptr && next->start == end;
  if (join_prev && join_next) {
    prev->end = next->end;
    Leaf& after = leaves_[next_leaf];
    after.iv.erase(after.iv.begin() + next_pos);
    Summarize(leaf);
    if (after.iv.empty()) {
      leaves_.erase(leaves_.begin() + next_leaf);
    } else if (next_leaf != p.leaf) {
      Summarize(after);
    }
    return end;
  }
  if (join_prev) {
    prev->end = end;
    if (p.pos == leaf.iv.size()) {
      leaf.last = end;
      leaf.busy += service;
    } else {
      Summarize(leaf);
    }
    return end;
  }
  if (join_next) {
    next->start = start;
    Summarize(leaves_[next_leaf]);
    return end;
  }
  // A fresh interval at p. A full leaf splits in half, except past the end
  // of the last leaf, where append-only timelines open a new leaf instead.
  size_t target = p.leaf;
  size_t pos = p.pos;
  if (leaf.iv.size() == kLeafCapacity) {
    if (target + 1 == leaves_.size() && pos == kLeafCapacity) {
      leaves_.push_back(Leaf{start, end, 0, service, {{start, end}}});
      return end;
    }
    constexpr size_t kHalf = kLeafCapacity / 2;
    Leaf right;
    right.iv.assign(leaf.iv.begin() + kHalf, leaf.iv.end());
    leaf.iv.resize(kHalf);
    Summarize(leaf);
    Summarize(right);
    leaves_.insert(leaves_.begin() + target + 1, std::move(right));
    if (pos > kHalf) {
      ++target;
      pos -= kHalf;
    }
  }
  Leaf& dst = leaves_[target];
  const bool append = pos == dst.iv.size();
  dst.iv.insert(dst.iv.begin() + pos, Interval{start, end});
  if (append) {
    dst.max_gap = std::max(dst.max_gap, start - dst.last);
    dst.last = end;
    dst.busy += service;
  } else {
    Summarize(dst);
  }
  return end;
}

SimTime Resource::Peek(SimTime arrival, SimTime service) const {
  return FindSlot(arrival, service).start + service;
}

SimTime Resource::Backlog(SimTime now) const {
  // Scheduled busy time after `now`.
  if (leaves_.empty()) return 0;
  const Position p = Locate(now);
  const Leaf& leaf = leaves_[p.leaf];
  SimTime busy = 0;
  if (p.pos > 0 && leaf.iv[p.pos - 1].end > now) {
    busy += leaf.iv[p.pos - 1].end - now;
  }
  for (size_t i = p.pos; i < leaf.iv.size(); ++i) {
    ++steps_;
    busy += leaf.iv[i].end - leaf.iv[i].start;
  }
  for (size_t k = p.leaf + 1; k < leaves_.size(); ++k) {
    ++steps_;
    busy += leaves_[k].busy;
  }
  return busy;
}

SimTime Resource::BusyIn(SimTime from, SimTime to) const {
  if (leaves_.empty()) return 0;
  const Position p = Locate(from);
  const std::vector<Interval>& iv = leaves_[p.leaf].iv;
  SimTime busy = 0;
  if (p.pos > 0 && iv[p.pos - 1].end > from) {
    busy += std::min(iv[p.pos - 1].end, to) - from;
  }
  for (size_t i = p.pos; i < iv.size(); ++i) {
    ++steps_;
    if (iv[i].start >= to) return busy;
    busy += std::min(iv[i].end, to) - iv[i].start;
  }
  for (size_t k = p.leaf + 1; k < leaves_.size(); ++k) {
    const Leaf& leaf = leaves_[k];
    ++steps_;
    if (leaf.first >= to) break;
    if (leaf.last <= to) {
      busy += leaf.busy;
      continue;
    }
    for (const Interval& i : leaf.iv) {
      ++steps_;
      if (i.start >= to) break;
      busy += std::min(i.end, to) - i.start;
    }
    break;  // The window ends inside this leaf.
  }
  return busy;
}

double Resource::UtilizationIn(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(BusyIn(from, to)) / static_cast<double>(to - from);
}

void Resource::Prune(SimTime before) {
  // Intervals end in order, so the pruned ones form a prefix: whole leaves,
  // then the head of the first survivor.
  size_t drop = 0;
  while (drop < leaves_.size() && leaves_[drop].last <= before) ++drop;
  leaves_.erase(leaves_.begin(), leaves_.begin() + drop);
  if (leaves_.empty()) return;
  Leaf& head = leaves_.front();
  size_t n = 0;
  while (head.iv[n].end <= before) ++n;
  if (n == 0) return;
  head.iv.erase(head.iv.begin(), head.iv.begin() + n);
  Summarize(head);
}

ResourcePool::ResourcePool(std::string name, int count) : name_(std::move(name)) {
  WATTDB_CHECK(count > 0);
  members_.reserve(count);
  for (int i = 0; i < count; ++i) {
    members_.emplace_back(name_ + "#" + std::to_string(i));
  }
}

SimTime ResourcePool::Acquire(SimTime arrival, SimTime service) {
  // Book the slot the winning member's search already found.
  size_t best = 0;
  Resource::Slot best_slot = members_[0].FindSlot(arrival, service);
  for (size_t i = 1; i < members_.size(); ++i) {
    const Resource::Slot slot = members_[i].FindSlot(arrival, service);
    if (slot.start < best_slot.start) {
      best = i;
      best_slot = slot;
    }
  }
  return members_[best].Insert(best_slot, service);
}

SimTime ResourcePool::Peek(SimTime arrival, SimTime service) const {
  SimTime best = members_[0].Peek(arrival, service);
  for (size_t i = 1; i < members_.size(); ++i) {
    best = std::min(best, members_[i].Peek(arrival, service));
  }
  return best;
}

SimTime ResourcePool::BusyIn(SimTime from, SimTime to) const {
  SimTime busy = 0;
  for (const auto& m : members_) busy += m.BusyIn(from, to);
  return busy;
}

double ResourcePool::UtilizationIn(SimTime from, SimTime to) const {
  if (to <= from || members_.empty()) return 0.0;
  return static_cast<double>(BusyIn(from, to)) /
         (static_cast<double>(to - from) * members_.size());
}

void ResourcePool::Prune(SimTime before) {
  for (auto& m : members_) m.Prune(before);
}

SimTime ResourcePool::Backlog(SimTime now) const {
  SimTime best = members_[0].Backlog(now);
  for (size_t i = 1; i < members_.size(); ++i) {
    best = std::min(best, members_[i].Backlog(now));
  }
  return best;
}

}  // namespace wattdb::sim
