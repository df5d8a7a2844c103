// History recorder plumbing and JSON shapes. The checker itself lives in
// linearize.cc; this file is the part workload drivers link against.

#include "chaos/history.h"

#include <string>

#include "chaos/chaos.h"

namespace wattdb::chaos {

uint64_t HistoryRecorder::Record(HistoryOp op) {
  op.id = next_id_++;
  ops_.push_back(op);
  return op.id;
}

namespace {

const char* KindName(OpKind k) {
  switch (k) {
    case OpKind::kRead:
      return "read";
    case OpKind::kWrite:
      return "write";
    case OpKind::kTxn:
      return "txn";
  }
  return "?";
}

const char* OutcomeName(OpOutcome o) {
  switch (o) {
    case OpOutcome::kOk:
      return "ok";
    case OpOutcome::kFailed:
      return "failed";
    case OpOutcome::kIndeterminate:
      return "indeterminate";
  }
  return "?";
}

}  // namespace

std::string ToJson(const HistoryOp& op) {
  std::string out = "{";
  out += "\"id\":" + std::to_string(op.id);
  out += ",\"client\":" + std::to_string(op.client);
  out += ",\"kind\":\"" + std::string(KindName(op.kind)) + "\"";
  out += ",\"key\":" + std::to_string(op.key);
  out += ",\"seq\":" + std::to_string(op.seq);
  out += ",\"outcome\":\"" + std::string(OutcomeName(op.outcome)) + "\"";
  out += ",\"invoked_at\":" + std::to_string(op.invoked_at);
  out += ",\"responded_at\":" + std::to_string(op.responded_at);
  out += ",\"from_replica\":" + std::string(op.from_replica ? "true" : "false");
  out += "}";
  return out;
}

std::string ToJson(const HistoryViolation& v) {
  std::string out = "{";
  out += "\"anomaly\":\"" + JsonEscape(v.anomaly) + "\"";
  out += ",\"key\":" + std::to_string(v.key);
  out += ",\"sub_history\":[";
  for (size_t i = 0; i < v.sub_history.size(); ++i) {
    if (i > 0) out += ",";
    out += ToJson(v.sub_history[i]);
  }
  out += "]}";
  return out;
}

}  // namespace wattdb::chaos
