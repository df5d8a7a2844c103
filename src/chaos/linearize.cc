// Per-key register linearizability checking of recorded histories. The
// register semantics: a committed write sets the value, a committed read
// must observe the current value at some instant within its [invocation,
// response] window.
//
// Per-key independence decomposition: register ops on different keys
// commute, so a history is linearizable iff each key's sub-history is.
// Each key is then decided exactly, in O(n log n), by the zone rule of
// Gibbons & Korach ("Testing Shared Memories", SIAM J. Comput. 1997): every
// write installs a distinct value (one seq counter feeds the load and all
// writes), so the write each read observed is known, and with a known
// read-mapping a register's linearizability needs no search.
//
// Outcome handling follows the client's knowledge: kFailed ops definitely
// had no effect (observing their value is a violation on its own),
// kIndeterminate ops may or may not have taken effect (infinite response
// time; with unique values one took effect iff some read observed it),
// and reads served by bounded-staleness warm replicas are exempt from the
// strict register check — they get the relaxed visibility rules in
// CheckReplicaRead, which flags only *definite* anomalies so a
// legitimately stale (but bounded) replica read never fails the scenario.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaos/history.h"

namespace wattdb::chaos {

namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::max();
constexpr SimTime kNegInfTime = std::numeric_limits<SimTime>::min();

/// One strict op of a key. An op that may never have taken effect (a
/// kIndeterminate write, or one still pending at a truncation cut) has its
/// response lifted to infinity: no real-time order follows from it.
struct StrictOp {
  const HistoryOp* op = nullptr;
  SimTime inv = 0;
  SimTime resp = kInfTime;
};

/// Exact check of one key's strict ops against a register that held
/// `initial` (0 = absent) before the window. Each value's cluster — its
/// write plus the reads that observed it — occupies the register from the
/// write to the last read, so it must cover its zone: from the cluster's
/// earliest response to its latest invocation. A zone whose earliest
/// response comes first is *forward*: the value provably held across it,
/// so no other forward zone may overlap it and no other cluster may fit
/// wholly inside it. Otherwise the zone is *backward*: the whole cluster
/// can sit at one instant anywhere in it, and only needs room outside
/// every forward zone. Closed intervals throughout: ops that merely touch
/// are concurrent, matching the real-time order a linearization honours.
/// An indeterminate write no read observed needs no special case: its
/// infinite response makes its zone a backward one that never ends, which
/// no forward zone can contain — it is as good as dropped.
bool Linearizable(const std::vector<StrictOp>& ops, uint64_t initial) {
  struct Cluster {
    SimTime write_inv = kInfTime;  ///< Never invoked until a write shows up.
    SimTime min_read_resp = kInfTime;
    SimTime min_resp = kInfTime;
    SimTime max_inv = kNegInfTime;
  };
  std::unordered_map<uint64_t, Cluster> clusters;
  // The initial value is a write that completed at -infinity.
  Cluster& load = clusters[initial];
  load.write_inv = kNegInfTime;
  load.min_resp = kNegInfTime;
  for (const StrictOp& s : ops) {
    Cluster& c = clusters[s.op->seq];
    c.min_resp = std::min(c.min_resp, s.resp);
    c.max_inv = std::max(c.max_inv, s.inv);
    if (s.op->kind == OpKind::kWrite) {
      c.write_inv = s.inv;
    } else {
      c.min_read_resp = std::min(c.min_read_resp, s.resp);
    }
  }

  using Zone = std::pair<SimTime, SimTime>;  ///< [lo, hi]
  std::vector<Zone> forward;
  std::vector<Zone> backward;
  for (const auto& [value, c] : clusters) {
    // A read that responded before its write was invoked — or of a value
    // nobody wrote, whose write is never invoked — observed no write.
    if (c.min_read_resp < c.write_inv) return false;
    if (c.min_resp < c.max_inv) {
      forward.emplace_back(c.min_resp, c.max_inv);
    } else {
      backward.emplace_back(c.max_inv, c.min_resp);
    }
  }

  // Disjoint forward zones form a chain once sorted by start, so checking
  // neighbours finds any strict overlap.
  std::sort(forward.begin(), forward.end());
  for (size_t i = 1; i < forward.size(); ++i) {
    if (forward[i].first < forward[i - 1].second) return false;
  }
  // Only the last forward zone starting before a backward zone's start can
  // strictly contain it.
  for (const Zone& b : backward) {
    auto it = std::lower_bound(
        forward.begin(), forward.end(), b.first,
        [](const Zone& f, SimTime t) { return f.first < t; });
    if (it != forward.begin() && b.second < std::prev(it)->second) {
      return false;
    }
  }
  return true;
}

/// The op completing at cut time `t` — the op a minimal failing truncation
/// newly exposed (every earlier cut passed).
const HistoryOp* OpRespondingAt(const std::vector<StrictOp>& ops, SimTime t) {
  for (const StrictOp& s : ops) {
    if (s.resp == t) return s.op;
  }
  return nullptr;
}

/// Human name for the anomaly the failing (sub-)history exhibits, keyed on
/// the offending op. Falls back to the generic statement when the shape is
/// not one of the recognizable read anomalies.
std::string NameAnomaly(const std::vector<StrictOp>& ops,
                        const HistoryOp* offender, Key key) {
  const std::string where = "key " + std::to_string(key);
  if (offender == nullptr || offender->kind != OpKind::kRead) {
    return "non-linearizable history on " + where +
           " (no valid linearization of its committed ops exists)";
  }
  // Writes that *definitely* preceded the offending read (responded before
  // it was invoked) — what the read was at minimum required to reflect.
  const StrictOp* latest_prior_write = nullptr;
  for (const StrictOp& s : ops) {
    if (s.op->kind != OpKind::kWrite) continue;
    if (s.resp >= offender->invoked_at) continue;
    if (latest_prior_write == nullptr || s.resp > latest_prior_write->resp) {
      latest_prior_write = &s;
    }
  }
  const std::string read_desc =
      "read (op " + std::to_string(offender->id) + ", t=[" +
      std::to_string(offender->invoked_at) + "," +
      std::to_string(offender->responded_at) + "]us)";
  if (latest_prior_write != nullptr &&
      latest_prior_write->op->seq != offender->seq) {
    if (offender->seq == 0) {
      return "lost read on " + where + ": " + read_desc +
             " observed the key absent although seq " +
             std::to_string(latest_prior_write->op->seq) +
             " had committed before the read began";
    }
    return "stale read on " + where + ": " + read_desc + " observed seq " +
           std::to_string(offender->seq) + " although seq " +
           std::to_string(latest_prior_write->op->seq) +
           " had committed before the read began";
  }
  return "non-linearizable read on " + where + ": " + read_desc +
         " observed seq " + std::to_string(offender->seq) +
         ", which no linearization of the concurrent writes can produce";
}

/// Everything the checker knows about one key.
struct KeySlice {
  std::vector<StrictOp> strict;          ///< Owner reads + effectful writes.
  std::vector<const HistoryOp*> replica_reads;
  std::set<uint64_t> failed_seqs;        ///< Values that must never surface.
  std::map<uint64_t, SimTime> write_invoked;  ///< seq -> invocation time.
  bool has_initial = false;
  uint64_t initial = 0;
};

/// Definite-anomaly screen applied to *every* committed read (owner and
/// replica): values that never existed or were definitely rolled back, and
/// values from the future, are violations no staleness bound can excuse.
std::string CheckObservedValue(const KeySlice& ks, const HistoryOp& read) {
  if (read.seq == 0) return "";
  if (ks.has_initial && read.seq == ks.initial) return "";
  if (ks.failed_seqs.count(read.seq) > 0) {
    return "read observed seq " + std::to_string(read.seq) +
           " of a refused/rolled-back write on key " +
           std::to_string(read.key) + " (definitely never committed)";
  }
  auto it = ks.write_invoked.find(read.seq);
  if (it == ks.write_invoked.end()) {
    return "read observed seq " + std::to_string(read.seq) + " on key " +
           std::to_string(read.key) + " that no recorded write ever wrote";
  }
  if (it->second > read.responded_at) {
    return "read on key " + std::to_string(read.key) + " observed seq " +
           std::to_string(read.seq) +
           " before the write of that value was even invoked";
  }
  return "";
}

/// Relaxed visibility for bounded-staleness replica reads: only definite
/// anomalies fail. A replica serves a copy taken no earlier than the
/// recorded window's start, and nothing deletes a history key, so a key
/// present in the initial load can never legitimately read as absent — but
/// observing
/// any *older committed* value is within the staleness bound's license.
std::string CheckReplicaRead(const KeySlice& ks, const HistoryOp& read) {
  const std::string bad = CheckObservedValue(ks, read);
  if (!bad.empty()) return "replica " + bad;
  if (read.seq == 0 && ks.has_initial) {
    return "replica read on key " + std::to_string(read.key) +
           " observed the key absent although it was loaded before the "
           "window and never deleted";
  }
  return "";
}

/// Minimal failing sub-history: truncate the key's ops at successive
/// response times (ops invoked after the cut drop out; ops still pending
/// at the cut lose their response, as an unfinished op may never take
/// effect) and keep the earliest cut that already fails. Sound because
/// truncating a linearizable history this way leaves it linearizable — so
/// the first failing cut pins the op that breaks it.
struct Truncation {
  std::vector<StrictOp> ops;
  SimTime cut = kInfTime;
  const HistoryOp* offender = nullptr;
};

Truncation MinimalFailingTruncation(const std::vector<StrictOp>& full,
                                    uint64_t initial) {
  std::vector<SimTime> cuts;
  for (const StrictOp& s : full) {
    if (s.resp != kInfTime) cuts.push_back(s.resp);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (SimTime cut : cuts) {
    std::vector<StrictOp> sub;
    for (const StrictOp& s : full) {
      if (s.inv > cut) continue;
      StrictOp t = s;
      if (s.resp > cut) {
        if (s.op->kind == OpKind::kRead) continue;  // Hadn't observed yet.
        t.resp = kInfTime;  // Still pending at the cut: effect uncertain.
      }
      sub.push_back(t);
    }
    if (!Linearizable(sub, initial)) {
      return Truncation{std::move(sub), cut, OpRespondingAt(full, cut)};
    }
  }
  // Not reached for a failing `full`: the last cut drops only indeterminate
  // writes invoked after every response, which no read can have observed.
  return Truncation{full, kInfTime, nullptr};
}

}  // namespace

HistoryCheckResult CheckHistory(const HistoryRecorder& recorder) {
  HistoryCheckResult result;

  // --- Per-key independence decomposition --------------------------------
  std::map<Key, KeySlice> keys;
  for (const auto& [key, seq] : recorder.initial()) {
    KeySlice& ks = keys[key];
    ks.has_initial = true;
    ks.initial = seq;
  }
  for (const HistoryOp& op : recorder.ops()) {
    if (op.kind == OpKind::kTxn) continue;  // Whole-txn markers: no register.
    KeySlice& ks = keys[op.key];
    ++result.ops_checked;
    switch (op.kind) {
      case OpKind::kWrite: {
        if (op.outcome == OpOutcome::kFailed) {
          ks.failed_seqs.insert(op.seq);
          break;
        }
        ks.write_invoked[op.seq] = op.invoked_at;
        StrictOp s;
        s.op = &op;
        s.inv = op.invoked_at;
        s.resp = op.outcome == OpOutcome::kIndeterminate ? kInfTime
                                                         : op.responded_at;
        ks.strict.push_back(s);
        break;
      }
      case OpKind::kRead: {
        if (op.outcome != OpOutcome::kOk) break;  // Observed nothing usable.
        if (op.from_replica) {
          ks.replica_reads.push_back(&op);
          break;
        }
        StrictOp s;
        s.op = &op;
        s.inv = op.invoked_at;
        s.resp = op.responded_at;
        ks.strict.push_back(s);
        break;
      }
      case OpKind::kTxn:
        break;
    }
  }

  // --- Check every key ---------------------------------------------------
  for (auto& [key, ks] : keys) {
    ++result.keys_checked;

    // Definite-anomaly screens first: they are cheap, they cover replica
    // reads the strict check never sees, and they produce the sharpest
    // anomaly names.
    bool screened = false;
    for (const StrictOp& s : ks.strict) {
      if (s.op->kind != OpKind::kRead) continue;
      const std::string bad = CheckObservedValue(ks, *s.op);
      if (!bad.empty()) {
        HistoryViolation v;
        v.anomaly = bad;
        v.key = key;
        for (const StrictOp& o : ks.strict) v.sub_history.push_back(*o.op);
        result.violations.push_back(std::move(v));
        screened = true;
        break;
      }
    }
    for (const HistoryOp* r : ks.replica_reads) {
      const std::string bad = CheckReplicaRead(ks, *r);
      if (!bad.empty()) {
        HistoryViolation v;
        v.anomaly = bad;
        v.key = key;
        v.sub_history.push_back(*r);
        for (const StrictOp& o : ks.strict) v.sub_history.push_back(*o.op);
        result.violations.push_back(std::move(v));
        break;
      }
    }
    if (screened) continue;

    // Exact zone check over the owner-served committed ops.
    const uint64_t initial = ks.has_initial ? ks.initial : 0;
    if (Linearizable(ks.strict, initial)) continue;
    Truncation min_fail = MinimalFailingTruncation(ks.strict, initial);
    HistoryViolation v;
    v.anomaly = NameAnomaly(min_fail.ops, min_fail.offender, key);
    v.key = key;
    std::vector<const HistoryOp*> subset;
    for (const StrictOp& s : min_fail.ops) subset.push_back(s.op);
    std::sort(subset.begin(), subset.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                return a->id < b->id;
              });
    for (const HistoryOp* o : subset) v.sub_history.push_back(*o);
    result.violations.push_back(std::move(v));
  }
  return result;
}

}  // namespace wattdb::chaos
