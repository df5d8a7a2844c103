// JSON rendering of scenario results for the chaos_soak report: no
// external JSON dependency, just enough escaping for the strings the
// harness itself produces.

#include <iomanip>
#include <sstream>

#include "chaos/chaos.h"

namespace wattdb::chaos {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream esc;
          esc << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c);
          out += esc.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatSimTime(SimTime t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << static_cast<double>(t) / static_cast<double>(kUsPerSec) << "s";
  return os.str();
}

namespace {

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

std::string ToJson(const ScenarioResult& r) {
  std::ostringstream os;
  os << "{\"seed\":" << r.seed
     << ",\"passed\":" << (r.passed ? "true" : "false")
     << ",\"nodes\":" << r.nodes
     << ",\"spare_nodes\":" << r.spare_nodes
     << ",\"elastic_actions\":" << r.elastic_actions
     << ",\"violations\":" << JsonStringArray(r.violations)
     << ",\"counters\":{"
     << "\"crashes_injected\":" << r.crashes_injected
     << ",\"partitions_injected\":" << r.partitions_injected
     << ",\"restarts_injected\":" << r.restarts_injected
     << ",\"nodes_declared_dead\":" << r.nodes_declared_dead
     << ",\"auto_restarts\":" << r.auto_restarts
     << ",\"replicas_promoted\":" << r.replicas_promoted
     << ",\"stale_route_refusals\":" << r.stale_route_refusals
     << ",\"committed_txns\":" << r.committed_txns
     << ",\"aborted_txns\":" << r.aborted_txns
     << ",\"indeterminate_txns\":" << r.indeterminate_txns
     << ",\"history_ops\":" << r.history_ops
     << ",\"history_keys_checked\":" << r.history_keys_checked
     << ",\"sim_end_us\":" << r.sim_end << "}"
     << ",\"fault_schedule\":" << JsonStringArray(r.fault_schedule);
  os << ",\"history_violations\":[";
  for (size_t i = 0; i < r.history_violations.size(); ++i) {
    if (i > 0) os << ",";
    os << ToJson(r.history_violations[i]);
  }
  os << "]";
  os << ",\"timeline\":" << JsonStringArray(r.timeline) << "}";
  return os.str();
}

}  // namespace wattdb::chaos
