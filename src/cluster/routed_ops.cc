#include "cluster/routed_ops.h"

#include <algorithm>
#include <unordered_map>

#include "cluster/node.h"

namespace wattdb::cluster {

namespace {

/// The admission class of a transaction's point ops; scans always go
/// through the batch class regardless of the flag.
admission::OpClass ClassOf(const tx::Txn* txn) {
  return txn != nullptr && txn->batch_priority
             ? admission::OpClass::kBatch
             : admission::OpClass::kLatencySensitive;
}

/// Admission gate of one routed op (or one owner-group of `ops` batch
/// keys): refused work returns ResourceExhausted before any hop is charged
/// or any node op runs — rejection is master-local and cheap, which is
/// what makes shedding better than queueing. System transactions
/// (migration, replication internals) are never refused.
Status AdmitOps(Cluster* c, tx::Txn* txn, NodeId owner, admission::OpClass cls,
                int ops = 1) {
  if (txn == nullptr || txn->system) return Status::OK();
  return c->admission().Admit(owner, cls, c->Now(), ops);
}

/// Book the admitted ops' departure from `owner`'s queue at the txn's
/// private completion time. §4.3 straggler retries and replica-fallback
/// visits ride the original admission — one admitted op, wherever its
/// record turns out to live.
void CompleteOps(Cluster* c, tx::Txn* txn, NodeId owner, int ops = 1) {
  if (txn == nullptr || txn->system) return;
  c->admission().Complete(owner, txn->now, ops);
}

}  // namespace

Status RoutedRead(Cluster* c, tx::Txn* txn, TableId table, Key key,
                  storage::Record* out) {
  // Reads (and only reads) may land on a serving warm replica instead of
  // the owner; a replica miss falls back to the authoritative copy below,
  // so bounded staleness can cost a retry but never a wrong NotFound.
  auto [part, second] = c->RouteForRead(txn, table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  // Track which copy *determined* the result: a replica-served observation
  // is only staleness-bounded, and history checking must not hold it to
  // the strict register semantics.
  bool served_by_replica = part->is_replica();
  Status s = c->node(part->owner())->Read(txn, part, key, out);
  c->ChargeClientHop(txn, part->owner(), 96,
                     32 + (s.ok() ? out->StoredSize() : 0));
  if ((s.IsNotFound() || s.IsUnavailable()) && second != nullptr) {
    // Two-pointer protocol (§4.3): mid-move the record may already live at
    // the other location; visit it. A down owner (crashed node) is treated
    // like a miss — the secondary may hold the data, and once recovery
    // remaps the range the retry succeeds there. The same path serves the
    // replica-fanout miss: `second` is then the owner.
    const Status retry = c->node(second->owner())->Read(txn, second, key, out);
    c->ChargeClientHop(txn, second->owner(), 96,
                       32 + (retry.ok() ? out->StoredSize() : 0));
    // A dead primary and a missing secondary is "unreachable", not
    // "absent": the key may well exist on the downed node.
    if (!(s.IsUnavailable() && retry.IsNotFound())) {
      s = retry;
      served_by_replica = second->is_replica();
    }
  }
  if (s.ok() || s.IsNotFound()) {
    if (served_by_replica && txn != nullptr) ++txn->replica_reads;
  }
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedUpdate(Cluster* c, tx::Txn* txn, TableId table, Key key,
                    const std::vector<uint8_t>& payload) {
  auto [part, second] = c->RouteBoth(txn, table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96 + payload.size(), 32);
  Status s = c->node(part->owner())->Update(txn, part, key, payload);
  if ((s.IsNotFound() || s.IsUnavailable()) && second != nullptr) {
    c->ChargeClientHop(txn, second->owner(), 96 + payload.size(), 32);
    const Status retry =
        c->node(second->owner())->Update(txn, second, key, payload);
    if (!(s.IsUnavailable() && retry.IsNotFound())) s = retry;
  }
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedUpsert(Cluster* c, tx::Txn* txn, TableId table, Key key,
                    const std::vector<uint8_t>& payload) {
  auto [part, second] = c->RouteBoth(txn, table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  // One admission decision for the whole logical op: the update probe, a
  // possible §4.3 secondary retry, and the insert fall-through are one
  // queued unit, not two (the old Update-then-Insert path double-charged
  // the owner's queue depth on every fresh key).
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96 + payload.size(), 32);
  Status s = c->node(part->owner())->Update(txn, part, key, payload);
  if ((s.IsNotFound() || s.IsUnavailable()) && second != nullptr) {
    c->ChargeClientHop(txn, second->owner(), 96 + payload.size(), 32);
    const Status retry =
        c->node(second->owner())->Update(txn, second, key, payload);
    if (!(s.IsUnavailable() && retry.IsNotFound())) s = retry;
  }
  if (s.IsNotFound()) {
    // Insert at the currently-routed location (may have shifted mid-move),
    // exactly like RoutedMultiWrite's upsert tail. A same-owner insert
    // rides the hop already charged above.
    catalog::Partition* ins = c->Route(txn, table, key);
    if (ins != nullptr) {
      if (ins->owner() != part->owner()) {
        c->ChargeClientHop(txn, ins->owner(), 96 + payload.size(), 32);
      }
      s = c->node(ins->owner())->Insert(txn, ins, key, payload);
    } else {
      // A fenced route mid-handoff must not read as "key absent".
      s = c->NoRouteStatus(table, key);
    }
  }
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedInsert(Cluster* c, tx::Txn* txn, TableId table, Key key,
                    const std::vector<uint8_t>& payload) {
  catalog::Partition* part = c->Route(txn, table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96 + payload.size(), 32);
  const Status s = c->node(part->owner())->Insert(txn, part, key, payload);
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedDelete(Cluster* c, tx::Txn* txn, TableId table, Key key) {
  auto [part, second] = c->RouteBoth(txn, table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96, 32);
  Status s = c->node(part->owner())->Delete(txn, part, key);
  if ((s.IsNotFound() || s.IsUnavailable()) && second != nullptr) {
    c->ChargeClientHop(txn, second->owner(), 96, 32);
    const Status retry = c->node(second->owner())->Delete(txn, second, key);
    if (!(s.IsUnavailable() && retry.IsNotFound())) s = retry;
  }
  CompleteOps(c, txn, part->owner());
  return s;
}

namespace {

/// Candidate locations of one batch key under the two-pointer protocol.
struct KeyRoute {
  catalog::Partition* part = nullptr;
  catalog::Partition* second = nullptr;
};

/// Key indexes grouped by the owner of their primary route, in first-
/// appearance order so charging is deterministic. An owner -> group index
/// keeps this O(keys) instead of O(keys × owners) — batches on wide
/// clusters touch many owners and this runs on every MultiGet/MultiPut.
std::vector<std::pair<NodeId, std::vector<size_t>>> GroupByOwner(
    const std::vector<KeyRoute>& routes) {
  std::vector<std::pair<NodeId, std::vector<size_t>>> groups;
  std::unordered_map<NodeId, size_t> group_of;
  group_of.reserve(routes.size());
  for (size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].part == nullptr) continue;
    const NodeId owner = routes[i].part->owner();
    auto [it, inserted] = group_of.emplace(owner, groups.size());
    if (inserted) {
      groups.emplace_back(owner, std::vector<size_t>{i});
    } else {
      groups[it->second].second.push_back(i);
    }
  }
  return groups;
}

/// Worker lane of `key` at its routed partition on `node`, or -1 when no
/// segment is resolvable (a mid-move gap charges the least-loaded core like
/// any work with no segment affinity).
int LaneOfKey(Cluster* c, Node* node, catalog::Partition* part, Key key) {
  if (part == nullptr) return -1;
  const SegmentId sid = part->SegmentFor(key);
  if (!sid.valid()) return -1;
  storage::Segment* seg = c->segments().Get(sid);
  if (seg == nullptr) return -1;
  return node->LaneOf(seg);
}

/// Sub-group one owner group's key indexes by the worker lane of each key's
/// segment, in first-appearance order. With lanes disabled everything lands
/// in a single group, so the caller's fan-out loop degenerates to the plain
/// serial batch.
std::vector<std::vector<size_t>> GroupByLane(
    Cluster* c, const std::vector<size_t>& idxs,
    const std::function<int(size_t)>& lane_of) {
  if (!c->config().lanes.enabled) return {idxs};
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<int, size_t> group_of;
  group_of.reserve(idxs.size());
  for (size_t i : idxs) {
    auto [it, inserted] = group_of.emplace(lane_of(i), groups.size());
    if (inserted) {
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  return groups;
}

}  // namespace

Status RoutedMultiRead(Cluster* c, tx::Txn* txn, TableId table,
                       const std::vector<Key>& keys,
                       std::vector<StatusOr<storage::Record>>* out,
                       BatchStats* stats) {
  if (c == nullptr || txn == nullptr || out == nullptr) {
    return Status::InvalidArgument("RoutedMultiRead needs cluster/txn/out");
  }
  BatchStats local;
  out->assign(keys.size(),
              StatusOr<storage::Record>(Status::NotFound("no route")));

  std::vector<KeyRoute> routes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    // Replica fan-out per key: hot keys spread over owner + serving
    // standbys, so one Zipf-hot owner stops bounding the whole batch.
    auto [part, second] = c->RouteForRead(txn, table, keys[i]);
    routes[i] = KeyRoute{part, second};
    if (part == nullptr) {
      // Distinguish "unrouted" from "fenced mid-handoff" per key, like the
      // point ops do.
      (*out)[i] = StatusOr<storage::Record>(c->NoRouteStatus(table, keys[i]));
    }
  }

  const NodeId master_id = c->master()->id();
  for (const auto& [owner, idxs] : GroupByOwner(routes)) {
    // Whole-group admission: the group is one queued unit of idxs.size()
    // ops on the owner. A refused group fails its keys with
    // ResourceExhausted and the batch moves on — other owners' groups may
    // still be admitted (partial shedding, like a partial owner outage).
    const Status admit =
        AdmitOps(c, txn, owner, ClassOf(txn), static_cast<int>(idxs.size()));
    if (!admit.ok()) {
      for (size_t i : idxs) (*out)[i] = StatusOr<storage::Record>(admit);
      local.shed_ops += static_cast<int>(idxs.size());
      continue;
    }
    // One request listing the group's keys, one response carrying its
    // records: the whole group rides a single round trip. On the owner the
    // group fans out over the worker lanes of its keys' segments —
    // shared-nothing intra-node parallelism: every lane's sub-batch starts
    // at the same instant and runs on that lane's core, and the group
    // completes when its slowest lane does.
    size_t resp_bytes = 32;
    const SimTime group_start = txn->now;
    SimTime group_done = group_start;
    for (const auto& lane_idxs : GroupByLane(c, idxs, [&](size_t i) {
           return LaneOfKey(c, c->node(owner), routes[i].part, keys[i]);
         })) {
      txn->now = group_start;
      for (size_t i : lane_idxs) {
        storage::Record rec;
        Status s = c->node(owner)->Read(txn, routes[i].part, keys[i], &rec);
        resp_bytes += s.ok() ? 32 + rec.StoredSize() : 8;
        // Conservative replica tagging: a straggler retry below may still
        // land on the authoritative copy, but over-tagging only relaxes
        // what history checking asserts about the observation.
        if ((s.ok() || s.IsNotFound()) && routes[i].part->is_replica()) {
          ++txn->replica_reads;
        }
        (*out)[i] = s.ok() ? StatusOr<storage::Record>(std::move(rec))
                           : StatusOr<storage::Record>(s);
      }
      group_done = std::max(group_done, txn->now);
    }
    txn->now = group_start;
    txn->AdvanceTo(group_done);
    c->ChargeClientHop(txn, owner, 96 + 8 * idxs.size(), resp_bytes);
    if (owner != master_id) ++local.owner_round_trips;
    CompleteOps(c, txn, owner, static_cast<int>(idxs.size()));
  }

  // Two-pointer protocol (§4.3): mid-move a record may already live at the
  // other location. Stragglers are retried one by one — they missed the
  // batch and pay their own hop.
  for (size_t i = 0; i < keys.size(); ++i) {
    const Status primary_status = (*out)[i].status();
    if (routes[i].second == nullptr ||
        !(primary_status.IsNotFound() || primary_status.IsUnavailable())) {
      continue;
    }
    storage::Record rec;
    const NodeId owner = routes[i].second->owner();
    Status s = c->node(owner)->Read(txn, routes[i].second, keys[i], &rec);
    c->ChargeClientHop(txn, owner, 96, 32 + (s.ok() ? rec.StoredSize() : 0));
    ++local.straggler_retries;
    if (s.ok()) (*out)[i] = std::move(rec);
  }

  if (stats != nullptr) stats->Add(local);
  return Status::OK();
}

Status RoutedMultiWrite(Cluster* c, tx::Txn* txn, TableId table,
                        const std::vector<KeyValue>& kvs,
                        std::vector<Status>* out, BatchStats* stats) {
  if (c == nullptr || txn == nullptr || out == nullptr) {
    return Status::InvalidArgument("RoutedMultiWrite needs cluster/txn/out");
  }
  BatchStats local;
  out->assign(kvs.size(), Status::NotFound("no route"));

  std::vector<KeyRoute> routes(kvs.size());
  for (size_t i = 0; i < kvs.size(); ++i) {
    auto [part, second] = c->RouteBoth(txn, table, kvs[i].key);
    routes[i] = KeyRoute{part, second};
    if (part == nullptr) (*out)[i] = c->NoRouteStatus(table, kvs[i].key);
  }

  const NodeId master_id = c->master()->id();
  for (const auto& [owner, idxs] : GroupByOwner(routes)) {
    // Whole-group admission, as in RoutedMultiRead.
    const Status admit =
        AdmitOps(c, txn, owner, ClassOf(txn), static_cast<int>(idxs.size()));
    if (!admit.ok()) {
      for (size_t i : idxs) (*out)[i] = admit;
      local.shed_ops += static_cast<int>(idxs.size());
      continue;
    }
    // The request ships every payload of the group at once (mirroring the
    // per-op order: charge, then write).
    size_t req_bytes = 96;
    for (size_t i : idxs) req_bytes += 8 + kvs[i].payload.size();
    c->ChargeClientHop(txn, owner, req_bytes, 32);
    if (owner != master_id) ++local.owner_round_trips;

    // Fan the group out over worker lanes exactly as RoutedMultiRead does:
    // each lane's sub-batch starts at the fan-out instant, the group
    // completes when its slowest lane does.
    const SimTime group_start = txn->now;
    SimTime group_done = group_start;
    for (const auto& lane_idxs : GroupByLane(c, idxs, [&](size_t i) {
           return LaneOfKey(c, c->node(owner), routes[i].part, kvs[i].key);
         })) {
      txn->now = group_start;
      for (size_t i : lane_idxs) {
        const Key key = kvs[i].key;
        const std::vector<uint8_t>& payload = kvs[i].payload;
        Status s = c->node(owner)->Update(txn, routes[i].part, key, payload);
        if ((s.IsNotFound() || s.IsUnavailable()) &&
            routes[i].second != nullptr) {
          // §4.3 straggler: the record already moved; re-ship the payload.
          const NodeId second_owner = routes[i].second->owner();
          c->ChargeClientHop(txn, second_owner, 96 + payload.size(), 32);
          ++local.straggler_retries;
          const Status retry = c->node(second_owner)
                                   ->Update(txn, routes[i].second, key,
                                            payload);
          // An unreachable primary stays Unavailable (never NotFound, which
          // would fall through to the insert tail and shadow the dead copy).
          if (!(s.IsUnavailable() && retry.IsNotFound())) s = retry;
        }
        if (s.IsNotFound()) {
          // Upsert tail: insert at the currently-routed location (which may
          // have shifted under the batch mid-move).
          catalog::Partition* ins = c->Route(txn, table, key);
          if (ins != nullptr) {
            if (ins->owner() != owner) {
              c->ChargeClientHop(txn, ins->owner(), 96 + payload.size(), 32);
            }
            s = c->node(ins->owner())->Insert(txn, ins, key, payload);
            ++local.inserts;
          } else {
            // A fenced route mid-handoff must not read as "key absent".
            s = c->NoRouteStatus(table, key);
          }
        }
        (*out)[i] = s;
      }
      group_done = std::max(group_done, txn->now);
    }
    txn->now = group_start;
    txn->AdvanceTo(group_done);
    CompleteOps(c, txn, owner, static_cast<int>(idxs.size()));
  }

  if (stats != nullptr) stats->Add(local);
  return Status::OK();
}

Status RoutedScan(Cluster* c, tx::Txn* txn, TableId table,
                  const KeyRange& range,
                  const std::function<bool(const storage::Record&)>& fn) {
  // A range may span several partitions mid-migration: visit each route.
  // ScanRange returns OK for both completion and an early stop, so the
  // callback's verdict is tracked here to stop the cross-route loop too.
  bool stopped = false;
  for (const auto& route : c->catalog().RoutesInRange(table, range)) {
    catalog::Partition* part =
        c->Route(txn, table, std::max(range.lo, route.range.lo));
    if (part == nullptr) {
      // A fenced range must abort the scan, not be silently skipped — a
      // committed-but-unscanned record would read as lost.
      const Status rs =
          c->NoRouteStatus(table, std::max(range.lo, route.range.lo));
      if (rs.IsUnavailable()) return rs;
      continue;
    }
    const KeyRange sub{std::max(range.lo, route.range.lo),
                       std::min(range.hi, route.range.hi)};
    if (sub.Empty()) continue;
    // Scans always ride the batch class: under pressure a refused range
    // chunk aborts the scan (retryable at leisure) while point lookups
    // keep their reserved headroom.
    WATTDB_RETURN_IF_ERROR(
        AdmitOps(c, txn, part->owner(), admission::OpClass::kBatch));
    // Response sized by this route's records only (the historical scan
    // charged a running total across routes, double-billing earlier ones).
    size_t shipped = 0;
    Status s = c->node(part->owner())
                   ->ScanRange(txn, part, sub, [&](const storage::Record& r) {
                     shipped += r.StoredSize();
                     stopped = !fn(r);
                     return !stopped;
                   });
    if (!s.ok()) return s;
    c->ChargeClientHop(txn, part->owner(), 96, 32 + shipped);
    CompleteOps(c, txn, part->owner());
    if (stopped) break;
  }
  return Status::OK();
}

}  // namespace wattdb::cluster
