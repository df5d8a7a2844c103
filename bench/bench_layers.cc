// Wall-clock cost of the simulator's hot layers, in isolation.
//
// sim::Resource, the busy-interval timeline every disk, log, network and
// core charge goes through, under three timeline shapes:
//
//   append_only  every request arrives at or past the frontier;
//   fragmented   ~50k intervals of standing backlog with small gaps, and
//                requests arriving inside it that only fit rare wide gaps
//                (the shape of a skewed open-loop node, e.g. Zipf KV);
//   retained     200k intervals of retained history with a shallow future
//                (the shape of a closed-loop TPC-C node between prunes).
//
// Each shape is a fixed script of acquires on a prepared timeline. Its work
// counter, timeline steps per acquire (Resource::steps(): leaf summaries
// plus interval entries examined), is deterministic and gated; the
// google-benchmark wall time per acquire is recorded as info.
//
// storage::Segment's insert path, under one script:
//
//   segment_load  a bulk load of TPC-C stock rows (312-byte payloads) into
//                 one fresh segment, to about 2000 pages. Each filled page
//                 keeps 76 bytes free: too few for another row, enough to
//                 hold the insert cursor, so every insert searches past
//                 all the filled pages.
//
// Its work counter, pages examined per insert (Segment::steps(): free-space
// map blocks plus pages examined), is gated; wall ns per insert is info.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "sim/resource.h"
#include "storage/segment.h"

namespace wattdb {
namespace {

struct Rng {
  uint64_t x;
  SimTime Below(SimTime n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<SimTime>(x % static_cast<uint64_t>(n));
  }
};

struct Shape {
  const char* name;
  int intervals;   ///< Busy intervals in the prepared timeline.
  int wide_every;  ///< Every n-th gap is 400 us wide (0: none).
  int acquires;    ///< Acquires in one run of the script.
  void (*drive)(sim::Resource& r, int acquires);
};

/// The shape's intervals laid end to end from t = 0, separated by gaps of
/// 1..15 us except for the wide ones.
sim::Resource Prepare(const Shape& shape) {
  constexpr SimTime kWideGap = 400;
  sim::Resource r;
  Rng rng{7};
  SimTime t = 0;
  for (int i = 0; i < shape.intervals; ++i) {
    const SimTime service = rng.Below(36) + 5;
    r.Acquire(t, service);
    const bool wide =
        shape.wide_every > 0 && i % shape.wide_every == shape.wide_every - 1;
    t += service + (wide ? kWideGap : rng.Below(15) + 1);
  }
  return r;
}

void DriveAppend(sim::Resource& r, int acquires) {
  Rng rng{11};
  for (int i = 0; i < acquires; ++i) {
    r.Acquire(r.LastBusyEnd() + rng.Below(10), rng.Below(20) + 1);
  }
}

void DriveFragmented(sim::Resource& r, int acquires) {
  // Requests land in the older half of the backlog and need 20..59 us,
  // more than any narrow gap: first-fit must find a wide one.
  Rng rng{13};
  const SimTime span = r.LastBusyEnd() / 2;
  for (int i = 0; i < acquires; ++i) {
    r.Acquire(rng.Below(span), rng.Below(40) + 20);
  }
}

void DriveRetained(sim::Resource& r, int acquires) {
  // Arrivals trail the frontier slightly: a shallow future over a deep
  // history.
  Rng rng{17};
  for (int i = 0; i < acquires; ++i) {
    r.Acquire(r.LastBusyEnd() - rng.Below(60), rng.Below(30) + 1);
  }
}

const Shape kShapes[] = {
    {"append_only", 1000, 0, 10000, DriveAppend},
    {"fragmented", 50000, 100, 2000, DriveFragmented},
    {"retained", 200000, 0, 10000, DriveRetained},
};

/// Deterministic work of one script run on a fresh copy of the timeline.
double StepsPerAcquire(const Shape& shape, const sim::Resource& prepared) {
  sim::Resource r = prepared;
  const uint64_t before = r.steps();
  shape.drive(r, shape.acquires);
  return static_cast<double>(r.steps() - before) / shape.acquires;
}

constexpr size_t kStockPayloadBytes = 312;
constexpr Key kSegmentLoadRows = 50000;

/// Loads the segment_load script into a fresh segment.
void SegmentLoad(storage::Segment* seg) {
  const std::vector<uint8_t> payload(kStockPayloadBytes, 0x5A);
  for (Key k = 0; k < kSegmentLoadRows; ++k) {
    if (!seg->Insert(k, payload).ok()) std::abort();
  }
}

/// Console output, plus each benchmark's mean wall ns per iteration.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      ns_per_iteration[run.run_name.function_name] =
          run.real_accumulated_time * 1e9 /
          static_cast<double>(run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> ns_per_iteration;
};

}  // namespace
}  // namespace wattdb

int main(int argc, char** argv) {
  using wattdb::bench::JsonReporter;
  std::printf("==============================================================\n");
  std::printf("Simulator layers — sim::Resource timeline, segment inserts\n");
  std::printf("==============================================================\n");
  benchmark::Initialize(&argc, argv);
  JsonReporter json("layers");
  std::vector<wattdb::sim::Resource> prepared;
  for (const wattdb::Shape& shape : wattdb::kShapes) {
    prepared.push_back(wattdb::Prepare(shape));
    json.Config(std::string(shape.name) + "_intervals", shape.intervals);
    json.Config(std::string(shape.name) + "_acquires", shape.acquires);
  }
  for (size_t i = 0; i < prepared.size(); ++i) {
    const wattdb::Shape& shape = wattdb::kShapes[i];
    const wattdb::sim::Resource& base = prepared[i];
    benchmark::RegisterBenchmark(
        shape.name, [&shape, &base](benchmark::State& state) {
          for (auto _ : state) {
            state.PauseTiming();
            wattdb::sim::Resource r = base;
            state.ResumeTiming();
            shape.drive(r, shape.acquires);
            benchmark::DoNotOptimize(r.LastBusyEnd());
          }
          state.SetItemsProcessed(state.iterations() * shape.acquires);
        });
  }
  benchmark::RegisterBenchmark("segment_load", [](benchmark::State& state) {
    for (auto _ : state) {
      state.PauseTiming();
      auto seg = std::make_unique<wattdb::storage::Segment>(
          wattdb::SegmentId(1), wattdb::NodeId(0), wattdb::DiskId(0));
      state.ResumeTiming();
      wattdb::SegmentLoad(seg.get());
      benchmark::DoNotOptimize(seg->page_count());
      state.PauseTiming();
      seg.reset();
      state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * wattdb::kSegmentLoadRows);
  });
  wattdb::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  std::printf("\n%-12s %12s %10s %24s %16s\n", "shape", "intervals",
              "acquires", "timeline_steps/acquire", "ns/acquire");
  for (size_t i = 0; i < prepared.size(); ++i) {
    const wattdb::Shape& shape = wattdb::kShapes[i];
    const double steps = wattdb::StepsPerAcquire(shape, prepared[i]);
    const std::string prefix = shape.name;
    json.Metric(prefix + "_timeline_steps_per_acquire", steps, "steps",
                JsonReporter::kLowerIsBetter);
    auto it = reporter.ns_per_iteration.find(shape.name);
    const double ns = it == reporter.ns_per_iteration.end()
                          ? 0.0
                          : it->second / shape.acquires;
    if (ns > 0.0) {
      json.Metric(prefix + "_wall_ns_per_acquire", ns, "ns",
                  JsonReporter::kInfo);
    }
    std::printf("%-12s %12d %10d %24.2f %16.1f\n", shape.name,
                shape.intervals, shape.acquires, steps, ns);
  }

  wattdb::storage::Segment seg(wattdb::SegmentId(1), wattdb::NodeId(0),
                               wattdb::DiskId(0));
  wattdb::SegmentLoad(&seg);
  const double inserts = static_cast<double>(wattdb::kSegmentLoadRows);
  const double pages_examined = static_cast<double>(seg.steps()) / inserts;
  json.Config("segment_load_rows", inserts);
  json.Config("segment_load_pages", static_cast<double>(seg.page_count()));
  json.Metric("segment_load_pages_examined_per_insert", pages_examined,
              "pages", JsonReporter::kLowerIsBetter);
  auto it = reporter.ns_per_iteration.find("segment_load");
  const double ns =
      it == reporter.ns_per_iteration.end() ? 0.0 : it->second / inserts;
  if (ns > 0.0) {
    json.Metric("segment_load_wall_ns_per_insert", ns, "ns",
                JsonReporter::kInfo);
  }
  std::printf("\n%-12s %12s %10s %24s %16s\n", "script", "pages", "inserts",
              "pages_examined/insert", "ns/insert");
  std::printf("%-12s %12zu %10.0f %24.2f %16.1f\n", "segment_load",
              seg.page_count(), inserts, pages_examined, ns);
  return 0;
}
