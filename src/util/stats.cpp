#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace mdmesh {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::Merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

void Accumulator::RestoreMoments(std::int64_t count, double mean, double m2,
                                 double min, double max) {
  count_ = count < 0 ? 0 : count;
  mean_ = mean;
  m2_ = m2;
  min_ = min;
  max_ = max;
}

double Accumulator::min() const { return count_ ? min_ : 0.0; }
double Accumulator::max() const { return count_ ? max_ : 0.0; }
double Accumulator::mean() const { return mean_; }

double Accumulator::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

std::string Accumulator::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " min=" << min() << " mean=" << mean()
     << " max=" << max() << " sd=" << stddev();
  return os.str();
}

void Histogram::Add(std::int64_t value) {
  assert(value >= 0);
  auto idx = static_cast<std::size_t>(value);
  if (idx >= buckets_.size()) {
    ++overflow_;
    idx = buckets_.size() - 1;
  }
  ++buckets_[idx];
  ++total_;
}

std::int64_t Histogram::Quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0;
  auto want = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total_)));
  want = std::max<std::int64_t>(want, 1);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= want) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(buckets_.size()) - 1;
}

namespace {

/// Value of the sorted sample multiset at 0-based index `idx` (bucket value
/// = bucket index, the Histogram convention).
std::int64_t SampleAt(const std::vector<std::int64_t>& buckets,
                      std::int64_t idx) {
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > idx) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(buckets.size()) - 1;
}

}  // namespace

double Histogram::Percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0.0;
  const double rank = q * static_cast<double>(total_ - 1);
  const auto lo_idx = static_cast<std::int64_t>(rank);
  const double frac = rank - static_cast<double>(lo_idx);
  const std::int64_t lo = SampleAt(buckets_, lo_idx);
  if (frac == 0.0) return static_cast<double>(lo);
  const std::int64_t hi = SampleAt(buckets_, lo_idx + 1);
  return static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
}

QuantileHistogram::QuantileHistogram(std::size_t buckets)
    : buckets_(buckets < 2 ? 2 : buckets, 0) {}

void QuantileHistogram::GrowToFit(std::int64_t value) {
  const auto n = static_cast<std::int64_t>(buckets_.size());
  while (value / width_ >= n) {
    // Double the width: merge bucket pairs (2i, 2i+1) -> i. Exact — every
    // sample stays in a bucket that still covers its value.
    const std::size_t half = buckets_.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      buckets_[i] = buckets_[2 * i] + buckets_[2 * i + 1];
    }
    if (buckets_.size() % 2 != 0) {
      buckets_[half] = buckets_.back();
      std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(half) + 1,
                buckets_.end(), 0);
    } else {
      std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(half),
                buckets_.end(), 0);
    }
    width_ *= 2;
  }
}

void QuantileHistogram::Add(std::int64_t value) {
  assert(value >= 0);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
  GrowToFit(value);
  ++buckets_[static_cast<std::size_t>(value / width_)];
}

void QuantileHistogram::Merge(const QuantileHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  // Every occupied bucket of `other` starts at or below other.max_, so
  // growing to other's max fits them all. Re-adding at bucket starts is
  // exact when widths match; a coarser `other` loses nothing beyond its own
  // bin resolution.
  GrowToFit(other.max_);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    if (other.buckets_[i] == 0) continue;
    const std::int64_t value = static_cast<std::int64_t>(i) * other.width_;
    buckets_[static_cast<std::size_t>(value / width_)] += other.buckets_[i];
  }
}

bool QuantileHistogram::RestoreState(std::int64_t width, std::int64_t count,
                                     std::int64_t min, std::int64_t max,
                                     double sum,
                                     std::vector<std::int64_t> buckets) {
  if (width < 1 || count < 0 || buckets.size() < 2) return false;
  buckets_ = std::move(buckets);
  width_ = width;
  count_ = count;
  min_ = min;
  max_ = max;
  sum_ = sum;
  return true;
}

double QuantileHistogram::Quantile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  auto want =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_)));
  want = std::max<std::int64_t>(want, 1);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::int64_t prev = seen;
    seen += buckets_[i];
    if (seen < want) continue;
    const double lo = static_cast<double>(static_cast<std::int64_t>(i) * width_);
    // Linear interpolation inside the bucket by the rank's position among
    // the bucket's samples; collapses to `lo` at width 1.
    const double within =
        width_ == 1
            ? 0.0
            : static_cast<double>(want - prev - 1) /
                  static_cast<double>(buckets_[i]) * static_cast<double>(width_);
    const double est = lo + within;
    return std::min(std::max(est, static_cast<double>(min_)),
                    static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

std::string QuantileHistogram::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " p50=" << Quantile(0.5) << " p95=" << Quantile(0.95)
     << " p99=" << Quantile(0.99) << " max=" << max();
  return os.str();
}

}  // namespace mdmesh
