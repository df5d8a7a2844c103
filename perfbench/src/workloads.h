#ifndef WATTDB_PERFBENCH_WORKLOADS_H_
#define WATTDB_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each one is a deterministic function of its
// seed: one "rep" opens a fresh Db, loads it (set-up), drives it through
// the public facade on the simulated event loop (the timed phase), checks
// the outputs, and returns what it measured. main.cc decides which seeds to
// run and how often (see there).

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace wattdb::perfbench {

/// One named measurement. `better` is "lower", "higher" or "info".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;
};

/// What one rep measured.
struct RepResult {
  /// Simulated-clock end-to-end metrics (deterministic in the seed).
  std::vector<Metric> sim;
  /// Per-layer counters read from the layers' observers (deterministic).
  std::vector<Metric> layers;
  double setup_s = 0;       ///< Wall: Db::Open + load.
  double timed_wall_s = 0;  ///< Wall: the timed phase.
  int64_t ops = 0;          ///< Completed simulated ops in the timed phase.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Failed output checks; empty means every check passed.
  std::vector<std::string> check_failures;
};

using RepFn = RepResult (*)(uint64_t seed, Tracer* tracer);

struct Workload {
  const char* name;
  const char* why;
  int subruns;  ///< Independent sub-run seeds per benchmark run.
  RepFn run;
};

RepResult RunTpccRebalance(uint64_t seed, Tracer* tracer);
RepResult RunKvHotspot(uint64_t seed, Tracer* tracer);
RepResult RunKvDefended(uint64_t seed, Tracer* tracer);
RepResult RunChaosHistory(uint64_t seed, Tracer* tracer);

}  // namespace wattdb::perfbench

#endif  // WATTDB_PERFBENCH_WORKLOADS_H_
