#ifndef WATTDB_PERFBENCH_TRACE_H_
#define WATTDB_PERFBENCH_TRACE_H_

// Wall-clock spans recorded by the benchmark around its own calls into the
// engine's layers. Spans live in memory and are written once, at exit, as
// JSON lines: id, parent span, op id, name, start and end. With tracing off
// every call is a branch on `enabled_` and nothing is recorded, so the
// untraced run measures the end-to-end numbers without the tracer's cost.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wattdb::perfbench {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t op = 0;      ///< Simulated op the span served (0 = none).
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span as a child of the innermost open span; returns its id
  /// (0 when tracing is off).
  uint64_t Begin(const char* name, uint64_t op = 0) {
    if (!enabled_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.op = op;
    s.name = name;
    s.start_ns = WallNs();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  void End(uint64_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = WallNs();
    // Spans close in LIFO order; the scope guard below enforces it.
    open_.pop_back();
  }

  /// Durations in ns of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Sum of the durations of `child`-named spans whose parent is a
  /// `parent`-named span, and the sum of the parents' durations.
  std::pair<double, double> ChildShare(const std::string& parent,
                                       const std::string& child) const {
    double parent_ns = 0;
    double child_ns = 0;
    for (const Span& s : spans_) {
      if (parent == s.name) parent_ns += static_cast<double>(s.end_ns - s.start_ns);
      if (child == s.name && s.parent != 0 && parent == spans_[s.parent - 1].name) {
        child_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    return {child_ns, parent_ns};
  }

  size_t size() const { return spans_.size(); }

  /// Writes the first `count` spans as one JSON object per line. Returns
  /// false when the file cannot be written.
  bool WriteJsonLines(const std::string& path, size_t count) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < std::min(count, spans_.size()); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t op = 0)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty input.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

}  // namespace wattdb::perfbench

#endif  // WATTDB_PERFBENCH_TRACE_H_
