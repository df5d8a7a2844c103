// perfbench: runs one named workload at one seed for a wall-time budget and
// prints its metrics; the last line of stdout is one JSON object.
//
//   perfbench --workload kv-hotspot --seed 1 --seconds 30 --trace 0
//
// A workload's rep is a deterministic function of its sub-run seed. A run
// executes a fixed number of sub-runs (seed * 1000 + 0, 1, ...) and then
// cycles through them again until the wall-time budget is spent. Simulated
// metrics are the means over the sub-runs, so they depend on the seed only;
// a repeated sub-run must reproduce its digest bit for bit (a check of its
// own). Wall-clock metrics are medians over all reps. With --trace 1 every
// sub-run runs untraced and then traced, the digests of the two must match,
// and the per-layer metrics are printed instead of the end-to-end ones. The
// spans of all traced reps stay in memory for the metrics; those of the
// first traced rep are written to --trace-out at exit.

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace wattdb::perfbench {
namespace {

// Sub-runs per workload: enough independent scenarios that the means of
// the simulated figures vary across benchmark seeds by well under their
// bounds in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"tpcc-rebalance", "the paper's Fig. 6 rig: TPC-C through a 50% online rebalance", 6,
     RunTpccRebalance},
    {"kv-hotspot", "open-loop Zipf hotspot, balancer only: deep timelines on the hot node", 4,
     RunKvHotspot},
    {"kv-defended", "same skew with admission, replicas and balancer: shallow timelines", 4,
     RunKvDefended},
    {"chaos-history", "seeded fault + elasticity scenarios with the history checker", 1,
     RunChaosHistory},
};

/// Measured and printed, but left out of the final JSON line and so not
/// gated: on kv-hotspot, whose standing backlog keeps almost every op past
/// the 100 ms limit and sheds nothing, both read 0 or close to it. The
/// final line's "failed"/"attempted" fields still carry the failures.
const char* const kNotGated[] = {"goodput_per_s", "failed_frac"};

/// Per-layer metrics a traced run prints, in this order: the data-path
/// entries on the data workloads, the chaos entries on chaos-history, and
/// the tracing overhead on both. A layer a workload does not exercise
/// prints 0 (README.md lists which).
struct LayerMetric {
  const char* name;
  const char* unit;
  bool chaos;
};
const LayerMetric kLayerMetrics[] = {
    {"sim.peek_ns.p50", "ns", false},
    {"sim.peek_ns.p75", "ns", false},
    {"sim.backlog_ns.p50", "ns", false},
    {"sim.backlog_ns.p75", "ns", false},
    {"sim.loop_wall_frac", "frac", false},
    {"sim.events_pending_max", "events", false},
    {"api.call_us.p50", "us", false},
    {"api.call_us.p99", "us", false},
    {"api.calls", "count", false},
    {"tx.cpu_ms", "ms", false},
    {"tx.disk_ms", "ms", false},
    {"tx.net_ms", "ms", false},
    {"tx.lock_wait_ms", "ms", false},
    {"tx.latch_ms", "ms", false},
    {"tx.log_ms", "ms", false},
    {"tx.other_ms", "ms", false},
    {"tx.log_bytes_per_txn", "B", false},
    {"tx.aborts", "count", false},
    {"storage.data_to_buffer", "ratio", false},
    {"storage.buffer_hit_rate", "frac", false},
    {"storage.writebacks_per_op", "count", false},
    {"hw.cpu_util_max", "frac", false},
    {"hw.cpu_util_mean", "frac", false},
    {"hw.disk_util_max", "frac", false},
    {"hw.net_bytes_per_op", "B", false},
    {"hw.watts_mean", "W", false},
    {"hw.active_nodes_mean", "nodes", false},
    {"cluster.round_trips_per_txn", "count", false},
    {"cluster.straggler_retries", "count", false},
    {"cluster.stale_route_refusals", "count", false},
    {"partition.segments_moved", "count", false},
    {"partition.bytes_shipped", "B", false},
    {"master.heat_rebalances", "count", false},
    {"master.heat_moves_completed", "count", false},
    {"admission.shed_frac", "frac", false},
    {"admission.queue_depth_max", "ops", false},
    {"replica.caught_up", "count", false},
    {"replica.bytes_per_write", "B", false},
    {"chaos.seed_wall_ms.p50", "ms", true},
    {"chaos.seed_wall_ms.p75", "ms", true},
    {"chaos.history_ops", "count", true},
    {"chaos.keys_over_budget", "count", true},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a->seconds < 1) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes.
}

/// Exact fingerprint of the simulated results: any bit that differs
/// between two reps (or a traced and an untraced run) changes it.
uint64_t Digest(const RepResult& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  for (const auto* list : {&r.sim, &r.layers}) {
    for (const Metric& m : *list) {
      mix(m.name.data(), m.name.size());
      mix(&m.value, sizeof(m.value));
    }
  }
  mix(&r.attempted, sizeof(r.attempted));
  mix(&r.failed, sizeof(r.failed));
  mix(&r.ops, sizeof(r.ops));
  return h;
}

/// Means of the sub-runs' simulated metrics and layer counters (every
/// sub-run reports the same names in the same order); counts are summed.
RepResult Mean(const std::vector<RepResult>& runs) {
  RepResult m = runs.front();
  for (size_t i = 1; i < runs.size(); ++i) {
    const RepResult& r = runs[i];
    for (size_t j = 0; j < m.sim.size(); ++j) m.sim[j].value += r.sim[j].value;
    for (size_t j = 0; j < m.layers.size(); ++j) m.layers[j].value += r.layers[j].value;
    m.setup_s += r.setup_s;
    m.attempted += r.attempted;
    m.failed += r.failed;
    m.ops += r.ops;
  }
  const double n = static_cast<double>(runs.size());
  for (Metric& x : m.sim) x.value /= n;
  for (Metric& x : m.layers) x.value /= n;
  m.setup_s /= n;
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  Tracer tracer(args.trace);
  Tracer off(false);
  const size_t k = static_cast<size_t>(wl->subruns);
  // First result and digest of every sub-run; later reps of the same
  // sub-run must reproduce the digest bit for bit.
  std::vector<RepResult> firsts;
  std::vector<uint64_t> digests;
  std::vector<double> setups, untraced_us_per_op, traced_us_per_op;
  std::vector<std::string> failures;
  const int64_t t0 = WallNs();
  // Every sub-run at least once; a traced run runs each once untraced and
  // once traced, and stops there. Past that, an untraced run starts another
  // rep only if it is expected to end inside the budget.
  const size_t min_reps = args.trace ? 2 * k : k;
  double last_rep_s = 0;
  size_t rep = 0;
  size_t first_traced_spans = 0;
  for (; rep < min_reps ||
         (!args.trace &&
          static_cast<double>(WallNs() - t0) / 1e9 + last_rep_s <= args.seconds);
       ++rep) {
    const int64_t rep_t0 = WallNs();
    const bool traced = args.trace && rep % 2 == 1;
    const size_t sub = (args.trace ? rep / 2 : rep) % k;
    RepResult r = wl->run(args.seed * 1000 + sub, traced ? &tracer : &off);
    const double us_per_op =
        r.timed_wall_s * 1e6 / static_cast<double>(std::max<int64_t>(1, r.ops));
    (traced ? traced_us_per_op : untraced_us_per_op).push_back(us_per_op);
    setups.push_back(r.setup_s);
    const uint64_t digest = Digest(r);
    std::fprintf(stderr,
                 "rep %zu (sub-run %zu%s): setup %.3f s, timed %.3f s, %" PRId64
                 " ops, digest %016" PRIx64 "\n",
                 rep + 1, sub, traced ? ", traced" : "", r.setup_s, r.timed_wall_s, r.ops, digest);
    for (const std::string& f : r.check_failures) failures.push_back(f);
    if (sub == firsts.size()) {
      firsts.push_back(std::move(r));
      digests.push_back(digest);
    } else if (digest != digests[sub]) {
      failures.push_back("rep " + std::to_string(rep + 1) + " did not reproduce sub-run " +
                         std::to_string(sub) + "'s simulated results" +
                         (traced ? " with tracing on" : ""));
    }
    last_rep_s = static_cast<double>(WallNs() - rep_t0) / 1e9;
    if (traced && first_traced_spans == 0) first_traced_spans = tracer.size();
    if (!failures.empty()) break;
  }
  // Simulated figures and layer counters: means over the sub-runs.
  const RepResult mean = Mean(firsts);
  if (mean.attempted == 0) failures.push_back("no op was attempted");

  std::vector<Metric> out;
  if (!args.trace) {
    if (mean.setup_s > 0) out.push_back({"setup_s", Median(setups), "s", "lower"});
    out.push_back({"wall_us_per_op", Median(untraced_us_per_op), "us", "lower"});
    out.push_back({"peak_rss_mb", PeakRssMb(), "MB", "lower"});
    for (const Metric& m : mean.sim) out.push_back(m);
  } else {
    std::map<std::string, Metric> layers;
    for (const Metric& m : mean.layers) layers[m.name] = m;
    // Wall-clock layer metrics from the traced reps' spans; units come from
    // kLayerMetrics.
    auto put = [&layers](const std::string& name, double v) { layers[name].value = v; };
    put("sim.peek_ns.p50", Percentile(tracer.Durations("sim.peek"), 50));
    put("sim.peek_ns.p75", Percentile(tracer.Durations("sim.peek"), 75));
    put("sim.backlog_ns.p50", Percentile(tracer.Durations("sim.backlog"), 50));
    put("sim.backlog_ns.p75", Percentile(tracer.Durations("sim.backlog"), 75));
    const auto [callbacks_ns, loop_ns] = tracer.ChildShare("sim.run_for", "gen.attempt");
    put("sim.loop_wall_frac", loop_ns > 0 ? (loop_ns - callbacks_ns) / loop_ns : 0.0);
    put("api.call_us.p50", Percentile(tracer.Durations("api.call"), 50) / 1e3);
    put("api.call_us.p99", Percentile(tracer.Durations("api.call"), 99) / 1e3);
    put("chaos.seed_wall_ms.p50", Percentile(tracer.Durations("chaos.run_scenario"), 50) / 1e6);
    put("chaos.seed_wall_ms.p75", Percentile(tracer.Durations("chaos.run_scenario"), 75) / 1e6);
    const bool chaos = std::string(wl->name) == "chaos-history";
    for (const LayerMetric& lm : kLayerMetrics) {
      if (lm.chaos != chaos) continue;
      auto it = layers.find(lm.name);
      out.push_back({lm.name, it != layers.end() ? it->second.value : 0.0, lm.unit, "info"});
    }
    out.push_back({"trace.overhead_us_per_op",
                   Median(traced_us_per_op) - Median(untraced_us_per_op), "us", "info"});
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out, first_traced_spans)) {
      failures.push_back("cannot write spans to " + args.trace_out);
    }
  }

  std::printf("workload %s seed %" PRIu64 ": %zu reps of %zu sub-runs in %.1f s (%s)\n",
              wl->name, args.seed, rep, k, static_cast<double>(WallNs() - t0) / 1e9, wl->why);
  std::printf("sim-digest %016" PRIx64 "\n", Digest(mean));
  for (const Metric& m : out) {
    std::printf("metric %-28s %18.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.better.c_str());
  }
  for (const std::string& f : failures) std::printf("check failed: %s\n", f.c_str());
  std::vector<Metric> gated;
  for (const Metric& m : out) {
    bool skip = false;
    for (const char* name : kNotGated) skip = skip || (!args.trace && m.name == name);
    if (!skip) gated.push_back(m);
  }
  std::string json = std::string("{\"correct\": ") + (failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<int64_t>(1, mean.attempted)) +
                     ", \"failed\": " + std::to_string(mean.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < gated.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + gated[i].name +
            "\": {\"value\": " + JsonNumber(gated[i].value) + ", \"unit\": \"" +
            gated[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wattdb::perfbench

int main(int argc, char** argv) {
  wattdb::perfbench::Args args;
  if (!wattdb::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return wattdb::perfbench::Run(args);
}
