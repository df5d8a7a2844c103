// tpcc-rebalance: the paper's §5.1 rig (bench_util.h RigOptions: 10 nodes,
// 2 active, physiological scheme, MVCC, a 400-page buffer far smaller than
// the data). Closed-loop TPC-C clients with think time run while half of
// the data moves online onto nodes 2 and 3 (Fig. 6). The clients are the
// benchmark's own: each runs workload::TpccRunner::Run on the simulated
// event loop and submits again after its think time.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "probe.h"
#include "workloads.h"

namespace wattdb::perfbench {
namespace {

constexpr int kWarehouses = 2;
constexpr int kClients = 20;
constexpr SimTime kThink = 60 * kUsPerMs;
constexpr SimTime kSlo = 500 * kUsPerMs;
/// Load before the rebalance is triggered.
constexpr SimTime kWarmup = 3 * kUsPerSec;
/// Scored window, opened by the trigger; the move must finish inside it.
constexpr SimTime kWindow = 60 * kUsPerSec;

struct TxnRecord {
  SimTime start = 0;
  SimTime end = 0;
  bool committed = false;
};

class TpccClients {
 public:
  TpccClients(Db* db, Tracer* tracer, uint64_t seed,
              std::vector<std::string>* failures)
      : db_(db), tracer_(tracer), runner_(db->tpcc()), failures_(failures) {
    for (int i = 0; i < kClients; ++i) {
      rngs_.push_back(std::make_unique<Rng>(seed * 7919 + static_cast<uint64_t>(i)));
    }
  }

  /// Starts the clients; txns are scored by their times against
  /// [score_from, score_to).
  void Start(SimTime score_from, SimTime score_to) {
    from_ = score_from;
    to_ = score_to;
    running_ = true;
    for (int i = 0; i < kClients; ++i) {
      const SimTime offset = static_cast<SimTime>(rngs_[i]->UniformDouble() * kThink);
      db_->events().ScheduleAfter(offset, [this, i]() { Submit(i); });
    }
  }
  void Stop() { running_ = false; }

  /// Fills the simulated metrics; returns the commits booked in the window.
  int64_t Finish(RepResult* r) const;

 private:
  void Submit(int client) {
    if (!running_) return;
    Rng* rng = rngs_[client].get();
    const workload::TpccTxnType type = mix_.Pick(rng);
    const uint64_t op_id = records_.size() + 1;
    Scope attempt(tracer_, "gen.attempt", op_id);
    const workload::TpccTxnResult res = [&]() {
      Scope span(tracer_, "api.call", op_id);
      return runner_.Run(type, rng);
    }();
    // The only failure TPC-C allows itself is a rollback: the 1% invalid
    // item of NewOrder or a concurrency-control abort. Anything else (a
    // row that must exist missing, a route unavailable) is an engine error.
    if (!res.committed && !res.status.IsAborted()) {
      failures_->push_back(std::string("TPC-C ") + workload::TpccTxnName(type) +
                           " failed: " + res.status.ToString());
    }
    records_.push_back({res.completed_at - res.latency_us, res.completed_at, res.committed});
    if (res.committed && res.completed_at >= from_ && res.completed_at < to_) {
      breakdown_.Add(res.profile);
    }
    const SimTime think = static_cast<SimTime>(rng->Exponential(static_cast<double>(kThink)));
    db_->events().ScheduleAt(res.completed_at + think, [this, client]() { Submit(client); });
  }

  Db* db_;
  Tracer* tracer_;
  workload::TpccRunner runner_;
  workload::TpccMix mix_;
  std::vector<std::unique_ptr<Rng>> rngs_;
  std::vector<std::string>* failures_;
  bool running_ = false;
  SimTime from_ = 0;
  SimTime to_ = 0;
  std::vector<TxnRecord> records_;
  TxBreakdown breakdown_;
};

int64_t TpccClients::Finish(RepResult* r) const {
  const SimTime from = from_, to = to_;
  int64_t attempted = 0, committed = 0, failed = 0, in_flight = 0;
  int64_t done_in_window = 0, good = 0;
  std::vector<double> latencies_ms;
  for (const TxnRecord& t : records_) {
    if (t.committed && t.end >= from && t.end < to) {
      ++done_in_window;  // Booked at completion.
      latencies_ms.push_back(static_cast<double>(t.end - t.start) / kUsPerMs);
      if (t.end - t.start <= kSlo) ++good;
    }
    if (t.start < from || t.start >= to) continue;
    ++attempted;
    if (t.end >= to) {
      ++in_flight;
    } else if (t.committed) {
      ++committed;
    } else {
      ++failed;
    }
  }
  int64_t failed_final = 0;
  for (const TxnRecord& t : records_) {
    failed_final += (t.start >= from && t.start < to && !t.committed) ? 1 : 0;
  }
  if (attempted != committed + failed + in_flight) {
    r->check_failures.push_back("op accounting does not close at window end");
  }
  const double secs = ToSeconds(to - from);
  r->attempted = attempted;
  r->failed = failed_final;
  r->ops = static_cast<int64_t>(records_.size());
  r->sim.push_back({"txn_per_s", done_in_window / secs, "1/s", "higher"});
  r->sim.push_back({"goodput_per_s", good / secs, "1/s", "higher"});
  r->sim.push_back({"p50_ms", Percentile(latencies_ms, 50), "ms", "lower"});
  r->sim.push_back({"p99_ms", Percentile(latencies_ms, 99), "ms", "lower"});
  r->sim.push_back({"failed_frac",
                    static_cast<double>(failed_final) / std::max<int64_t>(1, attempted),
                    "frac", "lower"});
  r->sim.push_back({"j_per_txn",
                    db_->WattsIn(from, to) * secs / std::max<int64_t>(1, done_in_window),
                    "J", "lower"});

  breakdown_.Append(&r->layers);
  r->layers.push_back({"api.calls", static_cast<double>(records_.size()), "count", "info"});
  r->layers.push_back({"tx.aborts", static_cast<double>(runner_.aborts()), "count", "info"});
  return done_in_window;
}

}  // namespace

RepResult RunTpccRebalance(uint64_t seed, Tracer* tracer) {
  RepResult r;
  bench::RebalanceSetup rig;
  rig.warehouses = kWarehouses;
  rig.clients = kClients;
  rig.think_time = kThink;
  rig.seed = seed;

  const int64_t t0 = WallNs();
  auto opened = Db::Open(bench::RigOptions(rig));
  if (!opened.ok()) {
    r.check_failures.push_back("Db::Open: " + opened.status().ToString());
    return r;
  }
  Db& db = **opened;
  r.setup_s = static_cast<double>(WallNs() - t0) / 1e9;
  const double data_to_buffer = DataToBuffer(db);

  const int64_t t1 = WallNs();
  const NodeCounters counters = NodeCounters::Read(db);
  Stepper stepper(&db, tracer);
  TpccClients clients(&db, tracer, seed, &r.check_failures);
  const SimTime from = db.Now() + kWarmup;
  clients.Start(from, from + kWindow);
  stepper.RunFor(kWarmup);
  SimTime done_at = -1;
  Status triggered;
  {
    Scope span(tracer, "db.trigger_rebalance");
    triggered = db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5,
                                    [&done_at, &db]() { done_at = db.Now(); });
  }
  if (!triggered.ok()) r.check_failures.push_back("TriggerRebalance: " + triggered.ToString());
  stepper.RunFor(kWindow);
  clients.Stop();
  r.timed_wall_s = static_cast<double>(WallNs() - t1) / 1e9;

  const auto& mig = db.scheme().stats();
  if (done_at < 0 || db.scheme().InProgress()) {
    r.check_failures.push_back("the triggered rebalance did not finish inside the run (" +
                               std::to_string(mig.segments_moved) + " of " +
                               std::to_string(mig.tasks_planned) + " segments moved)");
  } else if (mig.segments_moved == 0) {
    r.check_failures.push_back("the rebalance finished without moving a segment");
  }
  const int64_t committed = clients.Finish(&r);
  r.sim.push_back({"rebalance_s", done_at >= from ? ToSeconds(done_at - from) : 0.0, "s", "lower"});

  AppendControlPlane(db, &r.layers);
  r.layers.push_back({"storage.data_to_buffer", data_to_buffer, "ratio", "info"});
  stepper.AppendLayers(&r.layers);
  counters.AppendDelta(NodeCounters::Read(db), r.ops, committed, &r.layers);
  return r;
}

}  // namespace wattdb::perfbench
