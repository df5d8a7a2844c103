#ifndef WATTDB_COMMON_STATS_H_
#define WATTDB_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace wattdb {

/// Fixed-boundary latency histogram with percentile queries. Buckets grow
/// geometrically from 1 us to ~100 s, which covers every latency the
/// simulation produces.
class Histogram {
 public:
  Histogram();

  void Add(double value_us);
  void Reset();
  /// Merge another histogram's counts into this one.
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  /// p in [0, 100]; linear interpolation within the winning bucket.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  std::string ToString() const;

  /// Bucket boundaries shared by all histograms (geometric, 1 us .. 100 s).
  static std::vector<double> MakeBounds();

 private:
  static constexpr int kNumBuckets = 64;

  const std::vector<double>& bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wattdb

#endif  // WATTDB_COMMON_STATS_H_
