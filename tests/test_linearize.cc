// Unit tests for the per-key register linearizability checker
// (src/chaos/linearize.cc) on hand-built histories: known-linearizable
// shapes must pass, known-broken shapes must fail with the right named
// anomaly and a minimal failing sub-history, and the indeterminate /
// replica-read relaxations must neither over- nor under-report. A
// differential test holds the exact zone check to a Wing–Gong state-space
// search on random single-key histories.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "chaos/history.h"
#include "common/rng.h"

namespace wattdb::chaos {
namespace {

HistoryOp Op(OpKind kind, Key key, uint64_t seq, SimTime inv, SimTime resp,
             OpOutcome outcome = OpOutcome::kOk, int client = 0) {
  HistoryOp op;
  op.kind = kind;
  op.key = key;
  op.seq = seq;
  op.invoked_at = inv;
  op.responded_at = resp;
  op.outcome = outcome;
  op.client = client;
  return op;
}

TEST(Linearize, EmptyHistoryPasses) {
  HistoryRecorder rec;
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.keys_checked, 0);
}

TEST(Linearize, SequentialRegisterPasses) {
  HistoryRecorder rec;
  rec.RecordInitial(7, 1);
  rec.Record(Op(OpKind::kRead, 7, 1, 10, 20));
  rec.Record(Op(OpKind::kWrite, 7, 2, 30, 40));
  rec.Record(Op(OpKind::kRead, 7, 2, 50, 60));
  rec.Record(Op(OpKind::kWrite, 7, 3, 70, 80));
  rec.Record(Op(OpKind::kRead, 7, 3, 90, 100));
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front().anomaly;
  EXPECT_EQ(r.keys_checked, 1);
}

TEST(Linearize, ConcurrentOverlapMayOrderEitherWay) {
  // Two overlapping writes and a read that observed the one invoked
  // second: legal — the linearization point of the second write may fall
  // before the read.
  HistoryRecorder rec;
  rec.Record(Op(OpKind::kWrite, 1, 10, 0, 100, OpOutcome::kOk, 1));
  rec.Record(Op(OpKind::kWrite, 1, 11, 50, 150, OpOutcome::kOk, 2));
  rec.Record(Op(OpKind::kRead, 1, 11, 60, 90, OpOutcome::kOk, 3));
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, StaleReadIsCaught) {
  // seq 2 committed strictly before the read began, yet the read observed
  // the older seq 1 — a stale read, no legal linearization order exists.
  HistoryRecorder rec;
  rec.RecordInitial(3, 1);
  rec.Record(Op(OpKind::kWrite, 3, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 3, 1, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("stale read"), std::string::npos)
      << r.violations[0].anomaly;
  EXPECT_EQ(r.violations[0].key, 3u);
}

TEST(Linearize, LostReadIsCaught) {
  // The key was loaded and then written, yet a later read observed it
  // absent (seq 0) — a lost read.
  HistoryRecorder rec;
  rec.RecordInitial(5, 1);
  rec.Record(Op(OpKind::kWrite, 5, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 5, 0, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("lost read"), std::string::npos)
      << r.violations[0].anomaly;
}

TEST(Linearize, NeverWrittenValueIsCaught) {
  HistoryRecorder rec;
  rec.RecordInitial(9, 1);
  rec.Record(Op(OpKind::kRead, 9, 42, 10, 20));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("no recorded write"),
            std::string::npos)
      << r.violations[0].anomaly;
}

TEST(Linearize, FailedWriteMustNotBeObserved) {
  // A kFailed write was deliberately rolled back; observing its value is
  // a refused-write resurfacing.
  HistoryRecorder rec;
  rec.RecordInitial(2, 1);
  rec.Record(Op(OpKind::kWrite, 2, 7, 10, 20, OpOutcome::kFailed));
  rec.Record(Op(OpKind::kRead, 2, 7, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
}

TEST(Linearize, IndeterminateWriteMayLandOrNot) {
  // Either reading the indeterminate value or never seeing it is legal.
  for (const uint64_t observed : {uint64_t{1}, uint64_t{5}}) {
    HistoryRecorder rec;
    rec.RecordInitial(4, 1);
    rec.Record(Op(OpKind::kWrite, 4, 5, 10, 20, OpOutcome::kIndeterminate));
    rec.Record(Op(OpKind::kRead, 4, observed, 30, 40));
    EXPECT_TRUE(CheckHistory(rec).violations.empty())
        << "observed=" << observed << ": "
        << CheckHistory(rec).violations.front().anomaly;
  }
}

TEST(Linearize, IndeterminateWriteTakesEffectWithoutResponseOrdering) {
  // An indeterminate write whose effect surfaced long after the client
  // gave up: its response is lifted to infinity, so a much later read of
  // its value is still legal...
  HistoryRecorder rec;
  rec.RecordInitial(6, 1);
  rec.Record(Op(OpKind::kWrite, 6, 2, 10, 20, OpOutcome::kIndeterminate));
  rec.Record(Op(OpKind::kRead, 6, 1, 30, 40));
  rec.Record(Op(OpKind::kRead, 6, 2, 50, 60));
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
  // ...but flipping BACK to the old value after the new one was observed
  // is not: no register order serves 1, then 2, then 1 again.
  rec.Record(Op(OpKind::kRead, 6, 1, 70, 80));
  EXPECT_FALSE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, ReplicaReadMayBeBoundedStale) {
  // A replica read lagging behind a committed write is within the bounded-
  // staleness contract — the relaxed check must not flag it.
  HistoryRecorder rec;
  rec.RecordInitial(8, 1);
  rec.Record(Op(OpKind::kWrite, 8, 2, 10, 20));
  HistoryOp stale = Op(OpKind::kRead, 8, 1, 30, 40);
  stale.from_replica = true;
  rec.Record(stale);
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, ReplicaReadOfAbsentLoadedKeyIsCaught) {
  // Staleness never explains absence of a key that predates the window
  // and was never deleted: the replica simply never had it (the wrong-
  // NotFound shape the routing fix closed).
  HistoryRecorder rec;
  rec.RecordInitial(8, 1);
  HistoryOp absent = Op(OpKind::kRead, 8, 0, 30, 40);
  absent.from_replica = true;
  rec.Record(absent);
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("replica"), std::string::npos);
}

TEST(Linearize, TxnMarkersAreSkipped) {
  HistoryRecorder rec;
  rec.Record(Op(OpKind::kTxn, 0, 0, 10, 20));
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.keys_checked, 0);
}

TEST(Linearize, MinimalSubHistoryEndsAtTheOffendingRead) {
  // A long healthy tail after the violation must be truncated away: the
  // sub-history ends at the earliest cut that already fails, i.e. the
  // offending read's response, not the full key history.
  HistoryRecorder rec;
  rec.RecordInitial(1, 1);
  rec.Record(Op(OpKind::kWrite, 1, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 1, 1, 30, 40));  // Stale: the violation.
  for (int i = 0; i < 50; ++i) {
    rec.Record(Op(OpKind::kWrite, 1, 3 + i, 100 + 20 * i, 110 + 20 * i));
    rec.Record(Op(OpKind::kRead, 1, 3 + i, 112 + 20 * i, 118 + 20 * i));
  }
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_LE(r.violations[0].sub_history.size(), 3u)
      << "sub-history kept the healthy tail";
  SimTime max_resp = 0;
  for (const HistoryOp& op : r.violations[0].sub_history) {
    if (op.responded_at > max_resp && op.outcome == OpOutcome::kOk) {
      max_resp = op.responded_at;
    }
  }
  EXPECT_LE(max_resp, SimTime{40});
}

TEST(Linearize, PerKeyIsolationReportsEveryBrokenKey) {
  HistoryRecorder rec;
  for (Key k = 0; k < 4; ++k) {
    rec.RecordInitial(k, 1);
    rec.Record(Op(OpKind::kWrite, k, 2, 10, 20));
    // Keys 1 and 3 get a stale read; 0 and 2 stay healthy.
    rec.Record(Op(OpKind::kRead, k, (k % 2 == 1) ? 1 : 2, 30, 40));
  }
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_EQ(r.keys_checked, 4);
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].key, 1u);
  EXPECT_EQ(r.violations[1].key, 3u);
}

TEST(Linearize, ContendedKeyIsDecided) {
  // A stale read hidden among 16 concurrent indeterminate writes that no
  // read observed: every subset of them may or may not have landed, which
  // is 2^16 orders for a search to rule out. The key must still be decided
  // — and named — rather than left unchecked.
  HistoryRecorder rec;
  rec.Record(Op(OpKind::kWrite, 9, 1, 0, 1));
  rec.Record(Op(OpKind::kWrite, 9, 2, 2, 3));
  rec.Record(Op(OpKind::kRead, 9, 1, 5, 6));
  for (uint64_t i = 0; i < 16; ++i) {
    rec.Record(Op(OpKind::kWrite, 9, 100 + i, 0, 10,
                  OpOutcome::kIndeterminate, 1 + static_cast<int>(i)));
  }
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("stale read on key 9"),
            std::string::npos)
      << r.violations[0].anomaly;
}

// ------------------------------------------------ differential reference

// Wing & Gong 1993 state-space search with the memoization of Lowe 2017:
// the checker this repository shipped before the zone check. It decides
// any register history by trying linearization orders, so it needs no
// unique-value assumption — which makes it the reference the zone check
// is held to.

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::max();

/// One op prepared for the search: response lifted to infinity for
/// indeterminate outcomes, plus whether the search may omit it.
struct SearchOp {
  const HistoryOp* op = nullptr;
  SimTime inv = 0;
  SimTime resp = kInfTime;
  bool optional = false;  ///< kIndeterminate: may never have taken effect.
};

/// Search state: which ops are settled (linearized or omitted) and the
/// register value they produced. Two interleavings reaching the same
/// (settled-set, value) pair are equivalent for everything that follows,
/// so the pair is the memo key.
struct SearchState {
  std::vector<uint64_t> mask;
  uint64_t value = 0;

  friend bool operator==(const SearchState& a, const SearchState& b) {
    return a.value == b.value && a.mask == b.mask;
  }
};

struct SearchStateHash {
  size_t operator()(const SearchState& s) const {
    uint64_t h = s.value * 0x9e3779b97f4a7c15ull;
    for (uint64_t w : s.mask) {
      h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

bool MaskGet(const std::vector<uint64_t>& m, size_t i) {
  return (m[i / 64] >> (i % 64)) & 1;
}

void MaskSet(std::vector<uint64_t>* m, size_t i) {
  (*m)[i / 64] |= uint64_t{1} << (i % 64);
}

/// Effect of settling `op` on the register (writes install their seq,
/// reads leave it).
uint64_t Apply(const SearchOp& s, uint64_t value) {
  switch (s.op->kind) {
    case OpKind::kWrite:
      return s.op->seq;
    default:
      return value;
  }
}

/// Iterative-deepening-free DFS over linearization orders with state
/// memoization. Returns true when a valid linearization exists.
bool WingGongReference(const std::vector<SearchOp>& ops, uint64_t initial) {
  const size_t n = ops.size();
  if (n == 0) return true;
  const size_t words = (n + 63) / 64;

  std::unordered_set<SearchState, SearchStateHash> seen;
  struct Frame {
    SearchState state;
    size_t settled = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({SearchState{std::vector<uint64_t>(words, 0), initial}, 0});

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.settled == n) return true;
    if (!seen.insert(f.state).second) continue;

    // Earliest response among unsettled ops: any op invoked after it
    // strictly follows an unsettled op in real time and cannot go next.
    SimTime frontier = kInfTime;
    for (size_t i = 0; i < n; ++i) {
      if (!MaskGet(f.state.mask, i)) frontier = std::min(frontier, ops[i].resp);
    }
    for (size_t i = 0; i < n; ++i) {
      if (MaskGet(f.state.mask, i)) continue;
      if (ops[i].inv > frontier) continue;  // Some unsettled op precedes it.
      const SearchOp& s = ops[i];
      if (s.op->kind == OpKind::kRead) {
        if (s.op->seq == f.state.value) {
          Frame next = f;
          MaskSet(&next.state.mask, i);
          next.settled = f.settled + 1;
          stack.push_back(std::move(next));
        }
      } else {
        Frame next = f;
        MaskSet(&next.state.mask, i);
        next.state.value = Apply(s, f.state.value);
        next.settled = f.settled + 1;
        stack.push_back(std::move(next));
      }
      if (s.optional) {
        // The indeterminate op never took effect: settle it with no change.
        Frame skip = f;
        MaskSet(&skip.state.mask, i);
        skip.settled = f.settled + 1;
        stack.push_back(std::move(skip));
      }
    }
  }
  return false;
}

/// The strict ops of `rec` as the search sees them: failed writes and
/// replica reads excluded, indeterminate writes optional with an infinite
/// response — the same split CheckHistory makes.
std::vector<SearchOp> SearchOpsOf(const HistoryRecorder& rec) {
  std::vector<SearchOp> ops;
  for (const HistoryOp& op : rec.ops()) {
    if (op.outcome == OpOutcome::kFailed || op.from_replica) continue;
    SearchOp s;
    s.op = &op;
    s.inv = op.invoked_at;
    s.optional = op.outcome == OpOutcome::kIndeterminate;
    s.resp = s.optional ? kInfTime : op.responded_at;
    ops.push_back(s);
  }
  return ops;
}

/// A random single-key history of at most 10 ops over a short time span, so
/// ties and overlaps are common. Writes take fresh seqs (the load, if any,
/// holds seq 1) and may be ok, indeterminate or failed. Reads mostly
/// observe the absent key, the load, or a write invoked before the read
/// responded — stale or not — and now and then a later write's value or a
/// value nobody wrote.
HistoryRecorder RandomHistory(Rng* rng) {
  HistoryRecorder rec;
  const bool loaded = rng->UniformDouble() < 0.5;
  if (loaded) rec.RecordInitial(0, 1);
  const int n = static_cast<int>(rng->UniformInt(1, 10));
  std::vector<HistoryOp> ops;
  uint64_t next_seq = 2;
  for (int i = 0; i < n; ++i) {
    const SimTime inv = rng->UniformInt(0, 8);
    const SimTime resp = inv + rng->UniformInt(0, 3);
    if (rng->UniformDouble() < 0.45) {
      const double roll = rng->UniformDouble();
      const OpOutcome outcome = roll < 0.65   ? OpOutcome::kOk
                                : roll < 0.9 ? OpOutcome::kIndeterminate
                                             : OpOutcome::kFailed;
      ops.push_back(Op(OpKind::kWrite, 0, next_seq++, inv, resp, outcome, i));
    } else {
      ops.push_back(Op(OpKind::kRead, 0, 0, inv, resp, OpOutcome::kOk, i));
    }
  }
  for (HistoryOp& read : ops) {
    if (read.kind != OpKind::kRead) continue;
    if (rng->UniformDouble() < 0.03) {
      read.seq = 999;
      continue;
    }
    const bool any_write = rng->UniformDouble() < 0.1;
    std::vector<uint64_t> values = {0};
    if (loaded) values.push_back(1);
    for (const HistoryOp& w : ops) {
      if (w.kind == OpKind::kWrite &&
          (any_write || w.invoked_at <= read.responded_at)) {
        values.push_back(w.seq);
      }
    }
    read.seq =
        values[rng->UniformInt(0, static_cast<int64_t>(values.size()) - 1)];
  }
  for (const HistoryOp& op : ops) rec.Record(op);
  return rec;
}

/// The history as JSON lines, for a failure message.
std::string Dump(const HistoryRecorder& rec) {
  std::string out = rec.initial().empty() ? "\n  key absent before the window"
                                          : "\n  key loaded with seq 1";
  for (const HistoryOp& op : rec.ops()) out += "\n  " + ToJson(op);
  return out;
}

class LinearizeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinearizeDifferentialTest, AgreesWithWingGongReference) {
  constexpr int kHistories = 20000;
  Rng rng(GetParam());
  int linearizable = 0;
  for (int h = 0; h < kHistories; ++h) {
    const HistoryRecorder rec = RandomHistory(&rng);
    const uint64_t initial = rec.initial().empty() ? 0 : 1;
    const bool reference = WingGongReference(SearchOpsOf(rec), initial);
    const bool checked = CheckHistory(rec).violations.empty();
    ASSERT_EQ(checked, reference) << "history " << h << " of seed "
                                  << GetParam() << " (reference says "
                                  << (reference ? "" : "not ")
                                  << "linearizable):" << Dump(rec);
    if (reference) ++linearizable;
  }
  // Both verdicts must be well represented, or agreement proves little.
  EXPECT_GE(linearizable, kHistories / 4);
  EXPECT_GE(kHistories - linearizable, kHistories / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizeDifferentialTest,
                         ::testing::Values(1, 7, 42, 2024, 48611));

}  // namespace
}  // namespace wattdb::chaos
