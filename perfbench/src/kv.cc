// kv-hotspot and kv-defended: an open-loop Poisson generator of 8-key
// batches over a Zipf(0.99) key space whose hot head is contiguous, so one
// range owner soaks up most of the traffic. The generator is the
// benchmark's own: it runs on the simulated event loop and calls the
// facade's Session/TxnHandle MultiGet/MultiPut directly.
//
// Values are key-tagged (chaos::EncodePayload: key + write sequence), so
// every read is checked to return a value written for its own key.

#include <algorithm>
#include <string>
#include <vector>

#include "api/db.h"
#include "chaos/chaos.h"
#include "common/rng.h"
#include "probe.h"
#include "workloads.h"

namespace wattdb::perfbench {
namespace {

constexpr int64_t kNumKeys = 16384;
constexpr int kBatch = 8;
constexpr int kSegmentsPerPartition = 32;
constexpr double kOfferedQps = 1400;
constexpr SimTime kSlo = 100 * kUsPerMs;
constexpr SimTime kRetryBackoff = 20 * kUsPerMs;
/// Arrivals before the scored window let the balancer (and, when on, the
/// replicas) react; the window is then scored as it stands.
constexpr SimTime kConverge = 10 * kUsPerSec;
/// After the window closes, time allowed for pending shed retries.
constexpr SimTime kDrainMax = 10 * kUsPerSec;

struct KvSpec {
  double read_ratio = 0.95;
  /// Admission control with shed retries plus warm replicas.
  bool defended = false;
  /// Scored window. kv-hotspot's is short because its backlog makes every
  /// simulated second expensive in wall time.
  SimTime measure = 6 * kUsPerSec;
};

DbOptions Options(const KvSpec& spec, uint64_t seed) {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  // Only skew reactions: no CPU-threshold scale-out/in.
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.balance.enabled = true;
  policy.balance.trigger_ratio = 1.3;
  policy.balance.ewma_alpha = 0.5;
  policy.balance.trigger_after = 2;
  policy.balance.cooldown = 4 * kUsPerSec;
  policy.balance.max_moves_per_round = 6;
  policy.balance.min_total_heat = 100.0;
  if (spec.defended) {
    policy.replica.enabled = true;
    policy.replica.replicas_per_segment = 1;
    // Only the very hottest segment gets a standby. At bench_warm_replicas'
    // 40 ops/s the run is bimodal (README.md): depending on the seed,
    // standbys on the hot segments race the balancer's moves and the arm
    // lands at either ~1250 or ~830 txn/s.
    policy.replica.heat_threshold = 2000.0;
    policy.replica.max_replicated_segments = 4;
    policy.replica.max_lag_records = 256;
  }
  DbOptions options = DbOptions()
                          .WithNodes(4)
                          .WithActiveNodes(4)
                          .WithBufferPages(8000)
                          .WithSeed(seed)
                          .WithoutTpccLoad()
                          .WithMasterLoop(policy);
  // Record ops cost enough CPU that the hot owner saturates at a load the
  // whole cluster could serve (the calibration of bench_heat_rebalance).
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;
  if (spec.defended) {
    admission::AdmissionPolicy ap;
    ap.enabled = true;
    ap.max_queue_ops = 64;
    options.WithAdmissionPolicy(ap);
  }
  return options;
}

/// One open-loop transaction, from its due time to its final outcome.
struct Op {
  SimTime due = 0;
  SimTime resolved_at = -1;  ///< -1 while unresolved.
  bool read = true;
  bool committed = false;
  bool scored = false;  ///< Due inside the measured window.
  std::vector<Key> keys;
};

class KvGenerator {
 public:
  KvGenerator(Db* db, Tracer* tracer, TableId table, const KvSpec& spec,
              uint64_t seed, std::vector<std::string>* failures)
      : db_(db),
        tracer_(tracer),
        session_(db->OpenSession()),
        table_(table),
        spec_(spec),
        arrivals_(seed * 7919 + 1),
        choices_(seed * 6271 + 2),
        failures_(failures),
        max_seq_(static_cast<size_t>(kNumKeys), 0) {}

  /// Bulk-loads every key with a key-tagged value (system transactions,
  /// exempt from admission like the engine's own loaders).
  Status Load() {
    constexpr int64_t kLoadBatch = 256;
    for (int64_t lo = 0; lo < kNumKeys; lo += kLoadBatch) {
      std::vector<KeyValue> kvs;
      for (int64_t k = lo; k < std::min(kNumKeys, lo + kLoadBatch); ++k) {
        kvs.push_back(KeyValue{static_cast<Key>(k), Tag(static_cast<Key>(k))});
      }
      TxnHandle txn = session_.Begin();
      txn.txn()->system = true;
      StatusOr<MultiPutResult> r = txn.MultiPut(table_, kvs);
      if (!r.ok()) return r.status();
      for (const Status& s : r->statuses) {
        if (!s.ok()) return s;
      }
      WATTDB_RETURN_IF_ERROR(txn.Commit());
    }
    return Status::OK();
  }

  void Start(SimTime score_from, SimTime score_to) {
    score_from_ = score_from;
    score_to_ = score_to;
    running_ = true;
    ScheduleArrival();
  }
  void Stop() { running_ = false; }
  int64_t pending() const { return pending_; }
  int64_t committed_total() const { return committed_total_; }

  void Finish(RepResult* r, SimTime measured) const;

 private:
  std::vector<uint8_t> Tag(Key k) {
    const uint64_t seq = ++next_seq_;
    max_seq_[static_cast<size_t>(k)] = seq;
    return chaos::EncodePayload(k, seq);
  }

  void ScheduleArrival() {
    const SimTime gap = std::max<SimTime>(
        1, static_cast<SimTime>(arrivals_.Exponential(kUsPerSec / kOfferedQps)));
    db_->events().ScheduleAfter(gap, [this]() { Arrive(); });
  }

  void Arrive() {
    if (!running_) return;
    ScheduleArrival();
    Op op;
    op.due = db_->Now();
    op.scored = op.due >= score_from_ && op.due < score_to_;
    op.read = choices_.UniformDouble() < spec_.read_ratio;
    for (int i = 0; i < kBatch; ++i) {
      const uint64_t rank = choices_.Zipf(static_cast<uint64_t>(kNumKeys), 0.99);
      op.keys.push_back(static_cast<Key>(rank));
    }
    ops_.push_back(std::move(op));
    ++pending_;
    if (ops_.back().scored) ++attempted_;
    Attempt(ops_.size() - 1, 0);
  }

  void Attempt(size_t idx, int attempt);

  Db* db_;
  Tracer* tracer_;
  Session session_;
  TableId table_;
  KvSpec spec_;
  Rng arrivals_;
  Rng choices_;
  std::vector<std::string>* failures_;
  std::vector<uint64_t> max_seq_;
  uint64_t next_seq_ = 0;
  bool running_ = false;
  SimTime score_from_ = 0;
  SimTime score_to_ = 0;

  std::vector<Op> ops_;
  int64_t attempted_ = 0;  ///< Scored arrivals.
  int64_t pending_ = 0;    ///< Arrivals not yet resolved (any window).
  int64_t shed_ = 0;
  int64_t aborts_ = 0;
  int64_t calls_ = 0;
  int64_t round_trips_ = 0;
  int64_t stragglers_ = 0;
  int64_t writes_ok_ = 0;
  int64_t committed_total_ = 0;
  TxBreakdown breakdown_;
};

void KvGenerator::Attempt(size_t idx, int attempt) {
  const uint64_t op_id = idx + 1;
  Scope attempt_span(tracer_, "gen.attempt", op_id);
  Op& op = ops_[idx];
  TxnHandle txn = session_.Begin(/*read_only=*/op.read);
  Status status;
  int64_t written = 0;
  if (op.read) {
    StatusOr<MultiGetResult> r = [&]() {
      Scope span(tracer_, "api.call", op_id);
      return txn.MultiGet(table_, op.keys);
    }();
    ++calls_;
    status = r.status();
    if (r.ok()) {
      round_trips_ += r->stats.owner_round_trips;
      stragglers_ += r->stats.straggler_retries;
      for (size_t i = 0; i < op.keys.size() && status.ok(); ++i) {
        const auto& rec = r->records[i];
        if (!rec.ok()) {
          status = rec.status();
          if (rec.status().IsNotFound()) {
            failures_->push_back("read of loaded key " + std::to_string(op.keys[i]) +
                                 " returned NotFound");
          }
          break;
        }
        Key k = 0;
        uint64_t seq = 0;
        if (!chaos::DecodePayload(rec->payload, &k, &seq) || k != op.keys[i] ||
            seq == 0 || seq > max_seq_[static_cast<size_t>(op.keys[i])]) {
          failures_->push_back("read of key " + std::to_string(op.keys[i]) +
                               " returned a value not written for it");
        }
      }
    }
  } else {
    std::vector<KeyValue> kvs;
    for (Key k : op.keys) kvs.push_back(KeyValue{k, Tag(k)});
    StatusOr<MultiPutResult> r = [&]() {
      Scope span(tracer_, "api.call", op_id);
      return txn.MultiPut(table_, kvs);
    }();
    ++calls_;
    status = r.status();
    if (r.ok()) {
      round_trips_ += r->stats.owner_round_trips;
      stragglers_ += r->stats.straggler_retries;
      for (const Status& s : r->statuses) {
        if (!s.ok()) {
          status = s;
          break;
        }
      }
      written = r->oks();
    }
  }
  const tx::Txn before_commit = *txn.txn();
  if (status.ok()) status = txn.Commit();
  if (!status.ok()) txn.Abort();
  const SimTime done = txn.completed_at();

  if (status.IsResourceExhausted()) {
    ++shed_;
    if (spec_.defended && attempt < 2) {
      // Jittered exponential backoff; the op keeps its original due time.
      const double base = static_cast<double>(kRetryBackoff << attempt);
      const SimTime backoff = std::max<SimTime>(
          1, static_cast<SimTime>(base * (0.5 + choices_.UniformDouble())));
      db_->events().ScheduleAt(done + backoff,
                               [this, idx, attempt]() { Attempt(idx, attempt + 1); });
      return;
    }
  } else if (!status.ok()) {
    ++aborts_;
  }
  op.resolved_at = done;
  op.committed = status.ok();
  --pending_;
  if (op.committed) {
    ++committed_total_;
    writes_ok_ += written;
  }
  if (op.committed && op.scored) {
    // Read-only commits write no log record; a writer's commit time is
    // its commit record reaching the log, booked as log time.
    breakdown_.Add(before_commit, done - before_commit.now);
  }
}

void KvGenerator::Finish(RepResult* r, SimTime measured) const {
  std::vector<double> latencies_ms;
  int64_t committed = 0, failed = 0, in_flight = 0, completed_in_window = 0;
  int64_t good = 0;
  for (const Op& op : ops_) {
    if (op.resolved_at >= 0 && op.committed && op.resolved_at >= score_from_ &&
        op.resolved_at < score_to_) {
      ++completed_in_window;  // Booked at completion.
    }
    if (!op.scored) continue;
    if (op.resolved_at < 0 || op.resolved_at >= score_to_) {
      ++in_flight;
    } else if (op.committed) {
      ++committed;
    } else {
      ++failed;
    }
    if (op.resolved_at < 0) continue;
    if (op.committed) {
      const SimTime lat = op.resolved_at - op.due;
      latencies_ms.push_back(static_cast<double>(lat) / kUsPerMs);
      if (lat <= kSlo) ++good;
    }
  }
  // Accounting must close at the window's end and again after the drain.
  if (attempted_ != committed + failed + in_flight) {
    r->check_failures.push_back("op accounting does not close at window end");
  }
  if (pending_ != 0) {
    r->check_failures.push_back(std::to_string(pending_) +
                                " ops unresolved after the drain");
  }
  int64_t failed_final = 0;
  for (const Op& op : ops_) failed_final += (op.scored && !op.committed) ? 1 : 0;

  const double secs = ToSeconds(measured);
  const double joules = db_->WattsIn(score_from_, score_to_) * secs;
  r->attempted = attempted_;
  r->failed = failed_final;
  r->sim.push_back({"txn_per_s", completed_in_window / secs, "1/s", "higher"});
  r->sim.push_back({"goodput_per_s", good / secs, "1/s", "higher"});
  r->sim.push_back({"p50_ms", Percentile(latencies_ms, 50), "ms", "lower"});
  r->sim.push_back({"p99_ms", Percentile(latencies_ms, 99), "ms", "lower"});
  r->sim.push_back({"failed_frac",
                    static_cast<double>(failed_final) / std::max<int64_t>(1, attempted_),
                    "frac", "lower"});
  r->sim.push_back({"j_per_txn",
                    joules / std::max<int64_t>(1, completed_in_window), "J", "lower"});

  r->layers.push_back({"api.calls", static_cast<double>(calls_), "count", "info"});
  breakdown_.Append(&r->layers);
  r->layers.push_back({"tx.aborts", static_cast<double>(aborts_), "count", "info"});
  const double txns = std::max<size_t>(1, ops_.size());
  r->layers.push_back({"cluster.round_trips_per_txn", round_trips_ / txns, "count", "info"});
  r->layers.push_back({"cluster.straggler_retries", static_cast<double>(stragglers_), "count", "info"});
  r->layers.push_back({"admission.shed_frac",
                       static_cast<double>(shed_) / std::max<double>(1, calls_), "frac", "info"});
  r->layers.push_back({"replica.bytes_per_write",
                       static_cast<double>(db_->replicas().replication_bytes()) /
                           std::max<int64_t>(1, writes_ok_),
                       "B", "info"});
  r->ops = static_cast<int64_t>(ops_.size());
}

RepResult RunKv(const KvSpec& spec, uint64_t seed, Tracer* tracer) {
  RepResult r;
  const int64_t t0 = WallNs();
  auto opened = Db::Open(Options(spec, seed));
  if (!opened.ok()) {
    r.check_failures.push_back("Db::Open: " + opened.status().ToString());
    return r;
  }
  Db& db = **opened;
  auto table = db.CreateKvTable("kv", 16, kNumKeys, kSegmentsPerPartition);
  if (!table.ok()) {
    r.check_failures.push_back("CreateKvTable: " + table.status().ToString());
    return r;
  }
  KvGenerator gen(&db, tracer, *table, spec, seed, &r.check_failures);
  const Status loaded = gen.Load();
  if (!loaded.ok()) {
    r.check_failures.push_back("load: " + loaded.ToString());
    return r;
  }
  r.setup_s = static_cast<double>(WallNs() - t0) / 1e9;
  r.layers.push_back({"storage.data_to_buffer", DataToBuffer(db), "ratio", "info"});

  const int64_t t1 = WallNs();
  const NodeCounters counters = NodeCounters::Read(db);
  Stepper stepper(&db, tracer);
  const SimTime start = db.Now();
  gen.Start(start + kConverge, start + kConverge + spec.measure);
  stepper.RunFor(kConverge + spec.measure);
  gen.Stop();
  // Drain: arrivals are off; let shed retries and in-flight moves finish.
  const cluster::Master& m = db.master();
  auto settled = [&]() {
    return gen.pending() == 0 && !db.scheme().InProgress() &&
           m.heat_moves_planned() == m.heat_moves_completed() + m.heat_moves_abandoned();
  };
  for (SimTime waited = 0; !settled() && waited < kDrainMax; waited += kUsPerSec) {
    stepper.RunFor(kUsPerSec);
  }
  r.timed_wall_s = static_cast<double>(WallNs() - t1) / 1e9;
  gen.Finish(&r, spec.measure);

  // Heat rebalancing: first imbalance trigger to the last completed round.
  SimTime first = -1, last = -1;
  for (const auto& e : db.control_events()) {
    if (e.type == cluster::ControlEventType::kHeatImbalance && first < 0) first = e.at;
    if (e.type == cluster::ControlEventType::kHeatRebalanced) last = e.at;
  }
  if (!settled()) {
    r.check_failures.push_back("a triggered rebalance did not finish inside the run");
  }
  r.sim.push_back({"rebalance_s", first >= 0 && last >= first ? ToSeconds(last - first) : 0.0,
                   "s", "lower"});
  AppendControlPlane(db, &r.layers);
  stepper.AppendLayers(&r.layers);
  counters.AppendDelta(NodeCounters::Read(db), r.ops, gen.committed_total(), &r.layers);
  return r;
}

}  // namespace

RepResult RunKvHotspot(uint64_t seed, Tracer* tracer) {
  KvSpec spec;
  spec.read_ratio = 0.95;
  return RunKv(spec, seed, tracer);
}

RepResult RunKvDefended(uint64_t seed, Tracer* tracer) {
  KvSpec spec;
  spec.read_ratio = 0.80;
  spec.defended = true;
  spec.measure = 20 * kUsPerSec;
  return RunKv(spec, seed, tracer);
}

}  // namespace wattdb::perfbench
