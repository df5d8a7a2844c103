#ifndef WATTDB_PERFBENCH_PROBE_H_
#define WATTDB_PERFBENCH_PROBE_H_

// Advances simulated time through Db::RunFor in one-second steps and, after
// each step, samples the hardware and queue observers of every active node.
// Every observer called here is const with respect to the simulation (or,
// for admission depths, only prunes entries the next Admit would prune), and
// the traced and untraced runs make exactly the same calls; tracing only
// adds wall-clock spans around them. Simulated results are therefore the
// same with tracing on or off.

#include <algorithm>
#include <vector>

#include "api/db.h"
#include "trace.h"
#include "workloads.h"

namespace wattdb::perfbench {

/// Per-committed-txn component times (the Fig. 7 breakdown) of the scored
/// window, from each txn's private accounting.
class TxBreakdown {
 public:
  /// `commit_us` is time spent committing that `t` has not booked yet.
  void Add(const tx::Txn& t, SimTime commit_us = 0) {
    const SimTime parts[] = {t.cpu_us,   t.disk_us,           t.net_us,    t.lock_wait_us,
                             t.latch_us, t.log_us + commit_us, t.OtherUs()};
    for (size_t i = 0; i < kParts; ++i) sums_[i] += static_cast<double>(parts[i]);
    ++n_;
  }

  void Append(std::vector<Metric>* out) const {
    static const char* const kNames[kParts] = {"tx.cpu_ms",   "tx.disk_ms", "tx.net_ms",
                                               "tx.lock_wait_ms", "tx.latch_ms", "tx.log_ms",
                                               "tx.other_ms"};
    for (size_t i = 0; i < kParts; ++i) {
      out->push_back({kNames[i], sums_[i] / std::max<int64_t>(1, n_) / kUsPerMs, "ms", "info"});
    }
  }

 private:
  static constexpr size_t kParts = 7;
  double sums_[kParts] = {};
  int64_t n_ = 0;
};

/// Materialized data pages over the buffer pages of the active nodes.
inline double DataToBuffer(Db& db) {
  const double data = static_cast<double>(db.cluster().segments().TotalDiskBytes()) / kPageSize;
  const double buffer = static_cast<double>(db.options().cluster.buffer.capacity_pages) *
                        db.ActiveNodeCount();
  return buffer > 0 ? data / buffer : 0.0;
}

/// Control-plane counters: data moved, heat-balancing rounds, warm
/// replicas and fenced-route refusals, since Db::Open.
inline void AppendControlPlane(Db& db, std::vector<Metric>* out) {
  const auto& mig = db.scheme().stats();
  const cluster::Master& m = db.master();
  out->push_back({"partition.segments_moved", static_cast<double>(mig.segments_moved), "count", "info"});
  out->push_back({"partition.bytes_shipped", static_cast<double>(mig.bytes_shipped), "B", "info"});
  out->push_back({"master.heat_rebalances", static_cast<double>(m.heat_rebalances()), "count", "info"});
  out->push_back({"master.heat_moves_completed", static_cast<double>(m.heat_moves_completed()), "count", "info"});
  out->push_back({"replica.caught_up", static_cast<double>(db.replicas().replicas_caught_up()), "count", "info"});
  out->push_back({"cluster.stale_route_refusals",
                  static_cast<double>(db.cluster().stale_route_refusals()), "count", "info"});
}

/// Cumulative node-local counters summed over every node; the timed phase
/// reports the difference between two readings.
struct NodeCounters {
  double log_bytes = 0;
  double hits = 0;
  double misses = 0;
  double writebacks = 0;
  double net_bytes = 0;

  static NodeCounters Read(Db& db) {
    NodeCounters c;
    cluster::Cluster& cl = db.cluster();
    for (int i = 0; i < cl.num_nodes(); ++i) {
      cluster::Node* node = cl.node(NodeId(static_cast<uint32_t>(i)));
      c.log_bytes += static_cast<double>(node->log().bytes_written());
      c.hits += static_cast<double>(node->buffer().hits());
      c.misses += static_cast<double>(node->buffer().misses());
      c.writebacks += static_cast<double>(node->buffer().dirty_writebacks());
    }
    c.net_bytes = static_cast<double>(cl.network().bytes_sent());
    return c;
  }

  /// Storage/log/network per-layer metrics of `now - *this` over `ops`
  /// simulated ops of which `committed` committed.
  void AppendDelta(const NodeCounters& now, int64_t ops, int64_t committed,
                   std::vector<Metric>* out) const {
    const double n = static_cast<double>(std::max<int64_t>(1, ops));
    const double accesses = (now.hits - hits) + (now.misses - misses);
    out->push_back({"tx.log_bytes_per_txn",
                    (now.log_bytes - log_bytes) / std::max<int64_t>(1, committed), "B",
                    "info"});
    out->push_back({"storage.buffer_hit_rate",
                    accesses > 0 ? (now.hits - hits) / accesses : 0.0, "frac", "info"});
    out->push_back({"storage.writebacks_per_op", (now.writebacks - writebacks) / n,
                    "count", "info"});
    out->push_back({"hw.net_bytes_per_op", (now.net_bytes - net_bytes) / n, "B", "info"});
  }
};

class Stepper {
 public:
  Stepper(Db* db, Tracer* tracer) : db_(db), tracer_(tracer) {}

  /// Runs the simulation for `duration`, sampling after every whole second.
  void RunFor(SimTime duration) {
    const SimTime end = db_->Now() + duration;
    while (db_->Now() < end) {
      const SimTime step = std::min<SimTime>(kUsPerSec, end - db_->Now());
      {
        Scope span(tracer_, "sim.run_for");
        db_->RunFor(step);
      }
      if (step == kUsPerSec) Sample();
    }
  }

  /// Per-layer counters over every sample taken so far.
  void AppendLayers(std::vector<Metric>* out) const {
    const double n = std::max<double>(1, samples_);
    out->push_back({"hw.cpu_util_max", cpu_max_, "frac", "info"});
    out->push_back({"hw.cpu_util_mean", cpu_sum_ / std::max<double>(1, cpu_n_), "frac", "info"});
    out->push_back({"hw.disk_util_max", disk_max_, "frac", "info"});
    out->push_back({"hw.watts_mean", watts_sum_ / n, "W", "info"});
    out->push_back({"hw.active_nodes_mean", active_sum_ / n, "nodes", "info"});
    out->push_back({"admission.queue_depth_max", static_cast<double>(depth_max_), "ops", "info"});
    out->push_back({"sim.events_pending_max", static_cast<double>(events_max_), "events", "info"});
  }

 private:
  void Sample() {
    const SimTime now = db_->Now();
    const SimTime from = now - kUsPerSec;
    cluster::Cluster& c = db_->cluster();
    std::vector<hw::NodeHardware*> active;
    for (int i = 0; i < c.num_nodes(); ++i) {
      cluster::Node* node = c.node(NodeId(static_cast<uint32_t>(i)));
      if (node != nullptr && node->IsActive()) active.push_back(&node->hardware());
    }
    for (hw::NodeHardware* hw : active) {
      const double cpu = hw->CpuUtilizationIn(from, now);
      cpu_max_ = std::max(cpu_max_, cpu);
      cpu_sum_ += cpu;
      ++cpu_n_;
      for (const auto& disk : hw->disks()) {
        disk_max_ = std::max(disk_max_, disk->resource().UtilizationIn(from, now));
      }
    }
    // One sample = one sweep over every active node's timelines, so a
    // single backlogged node shows in the sample's cost. The probed service
    // is one record read (CPU) and one random page access (disk).
    const SimTime cpu_service = c.config().costs.cpu_record_read_us;
    {
      Scope span(tracer_, "sim.peek");
      for (hw::NodeHardware* hw : active) {
        sink_ += hw->cpu().Peek(now, cpu_service);
        for (const auto& disk : hw->disks()) {
          sink_ += disk->resource().Peek(now, disk->RandomServiceTime(kPageSize));
        }
      }
    }
    {
      Scope span(tracer_, "sim.backlog");
      for (hw::NodeHardware* hw : active) sink_ += hw->cpu().Backlog(now);
    }
    for (const auto& g : db_->monitor().QueueDepths()) {
      depth_max_ = std::max(depth_max_, g.queued_ops);
    }
    events_max_ = std::max(events_max_, db_->events().size());
    watts_sum_ += db_->WattsIn(from, now);
    active_sum_ += static_cast<double>(active.size());
    ++samples_;
  }

  Db* db_;
  Tracer* tracer_;
  int samples_ = 0;
  int cpu_n_ = 0;
  double cpu_max_ = 0;
  double cpu_sum_ = 0;
  double disk_max_ = 0;
  double watts_sum_ = 0;
  double active_sum_ = 0;
  int64_t depth_max_ = 0;
  size_t events_max_ = 0;
  /// Keeps the probe results observable so the calls are not elided.
  volatile SimTime sink_ = 0;
};

}  // namespace wattdb::perfbench

#endif  // WATTDB_PERFBENCH_PROBE_H_
