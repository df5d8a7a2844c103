#include "common/stats.h"

#include <cmath>
#include <sstream>

namespace wattdb {

std::vector<double> Histogram::MakeBounds() {
  std::vector<double> bounds(kNumBuckets);
  // Geometric progression from 1 us to 1e8 us (100 s).
  const double lo = 1.0, hi = 1e8;
  const double ratio = std::pow(hi / lo, 1.0 / (kNumBuckets - 1));
  double b = lo;
  for (int i = 0; i < kNumBuckets; ++i) {
    bounds[i] = b;
    b *= ratio;
  }
  return bounds;
}

namespace {
const std::vector<double>& GlobalBounds() {
  static const auto& bounds = *new std::vector<double>(Histogram::MakeBounds());
  return bounds;
}
}  // namespace

Histogram::Histogram() : bounds_(GlobalBounds()), buckets_(kNumBuckets, 0) {}

void Histogram::Add(double value_us) {
  if (count_ == 0) {
    min_ = max_ = value_us;
  } else {
    min_ = std::min(min_, value_us);
    max_ = std::max(max_, value_us);
  }
  ++count_;
  sum_ += value_us;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value_us);
  size_t idx = static_cast<size_t>(it - bounds_.begin());
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  ++buckets_[idx];
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * count_;
  int64_t acc = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    acc += buckets_[i];
    if (acc >= target) {
      const double upper = bounds_[i];
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const int64_t in_bucket = buckets_[i];
      if (in_bucket == 0) return upper;
      const double frac =
          (target - (acc - in_bucket)) / static_cast<double>(in_bucket);
      double v = lower + frac * (upper - lower);
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << mean() << "us p50=" << Percentile(50)
     << "us p95=" << Percentile(95) << "us p99=" << Percentile(99)
     << "us max=" << max_ << "us";
  return os.str();
}

}  // namespace wattdb
