// chaos-history: a fixed-length list of chaos::RunScenario seeds with the
// history recorder and the elasticity arm on. Each scenario builds its own
// cluster, races seeded faults and scale decisions against a KV workload,
// then audits the final state and checks the recorded history for per-key
// linearizability. The list starts at a point derived from the benchmark
// seed, so a benchmark seed names one fixed list.

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "workloads.h"

namespace wattdb::perfbench {

namespace {
constexpr uint64_t kFirstScenarioSeed = 5000;
constexpr int kScenarios = 40;
}  // namespace

RepResult RunChaosHistory(uint64_t seed, Tracer* tracer) {
  RepResult r;
  int64_t history_ops = 0, keys_checked = 0, over_budget = 0;
  int64_t committed = 0, aborted = 0, indeterminate = 0;
  SimTime sim_total = 0;
  const int64_t t0 = WallNs();
  for (int i = 0; i < kScenarios; ++i) {
    chaos::ChaosConfig cfg;
    cfg.seed = kFirstScenarioSeed + seed * kScenarios + static_cast<uint64_t>(i);
    cfg.record_history = true;
    cfg.elasticity = true;
    chaos::ScenarioResult res;
    {
      Scope span(tracer, "chaos.run_scenario", static_cast<uint64_t>(i) + 1);
      res = chaos::RunScenario(cfg);
    }
    if (!res.passed) {
      r.check_failures.push_back("chaos seed " + std::to_string(cfg.seed) + ": " +
                                 (res.violations.empty() ? "failed" : res.violations[0]));
    }
    history_ops += res.history_ops;
    keys_checked += res.history_keys_checked;
    over_budget += res.history_keys_over_budget;
    committed += static_cast<int64_t>(res.committed_txns);
    aborted += static_cast<int64_t>(res.aborted_txns);
    indeterminate += static_cast<int64_t>(res.indeterminate_txns);
    sim_total += res.sim_end;
  }
  r.timed_wall_s = static_cast<double>(WallNs() - t0) / 1e9;
  r.ops = history_ops;
  r.attempted = committed + aborted + indeterminate;
  r.failed = aborted + indeterminate;
  r.sim.push_back({"txn_per_s", committed / std::max(1e-9, ToSeconds(sim_total)), "1/s", "higher"});
  r.sim.push_back({"failed_frac", static_cast<double>(r.failed) / std::max<int64_t>(1, r.attempted),
                   "frac", "lower"});
  r.sim.push_back({"keys_unchecked_frac",
                   static_cast<double>(over_budget) / std::max<int64_t>(1, keys_checked), "frac",
                   "lower"});
  r.layers.push_back({"chaos.history_ops", static_cast<double>(history_ops), "count", "info"});
  r.layers.push_back({"chaos.keys_over_budget", static_cast<double>(over_budget), "count", "info"});
  return r;
}

}  // namespace wattdb::perfbench
