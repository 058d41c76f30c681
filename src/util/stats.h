// Streaming statistics accumulators used by the metrics and bench layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace mdmesh {

/// Single-pass accumulator for count/min/max/mean/variance (Welford).
class Accumulator {
 public:
  void Add(double x);
  void Merge(const Accumulator& other);

  std::int64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double variance() const;  ///< population variance
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Raw second central moment (Welford m2), exposed with RestoreMoments so
  /// a checkpoint can round-trip the accumulator exactly.
  double m2() const { return m2_; }
  void RestoreMoments(std::int64_t count, double mean, double m2, double min,
                      double max);

  std::string ToString() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram over integer values [0, size). Values >= size are
/// clamped into the last bucket (and counted as overflow).
class Histogram {
 public:
  explicit Histogram(std::size_t size) : buckets_(size, 0) {}

  void Add(std::int64_t value);
  /// Empties every bucket, keeping the allocation.
  void Clear() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    total_ = 0;
    overflow_ = 0;
  }
  std::int64_t Count(std::size_t bucket) const { return buckets_.at(bucket); }
  std::int64_t total() const { return total_; }
  std::int64_t overflow() const { return overflow_; }
  std::size_t size() const { return buckets_.size(); }

  /// Smallest value v such that at least `q` fraction of samples are <= v.
  std::int64_t Quantile(double q) const;

  /// Interpolated percentile over the stored sample multiset (the numpy
  /// "linear" rule): the value at fractional rank q * (total - 1), linearly
  /// interpolated between the two adjacent sample values when the rank falls
  /// between them. Exact (equals Quantile) when the rank lands on a sample.
  /// Returns 0 on an empty histogram.
  double Percentile(double q) const;

 private:
  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;
  std::int64_t overflow_ = 0;
};

/// Quantile histogram for non-negative integer measurements with an
/// unknown range (per-packet latencies): a fixed number of buckets whose
/// common width starts at 1 and doubles whenever a value lands beyond the
/// current span (adjacent buckets merge pairwise, which is exact). Memory
/// stays O(buckets) forever; resolution degrades gracefully from exact
/// counts to power-of-two-wide bins. Quantile() is exact while the width
/// is 1 and linearly interpolated inside wider bins, always clamped to the
/// observed [min, max].
class QuantileHistogram {
 public:
  explicit QuantileHistogram(std::size_t buckets = 2048);

  /// Adds one sample. value must be >= 0.
  void Add(std::int64_t value);
  /// Folds `other` into this histogram (widths are aligned by doubling).
  void Merge(const QuantileHistogram& other);

  std::int64_t count() const { return count_; }
  std::int64_t min() const { return count_ > 0 ? min_ : 0; }
  std::int64_t max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Current bucket width (1 = exact integer resolution).
  std::int64_t width() const { return width_; }

  /// Exact sample sum (mean() * count(), kept separately for round-trips).
  double sum() const { return sum_; }
  /// The raw bucket array, for checkpoint serialization.
  const std::vector<std::int64_t>& raw_buckets() const { return buckets_; }
  /// Replaces the full histogram state from a checkpoint. Returns false
  /// (leaving the histogram untouched) on malformed input: width < 1,
  /// negative count, or fewer than two buckets.
  bool RestoreState(std::int64_t width, std::int64_t count, std::int64_t min,
                    std::int64_t max, double sum,
                    std::vector<std::int64_t> buckets);

  /// The value at quantile q in [0, 1] (0.5 = median). Exact for width 1;
  /// otherwise interpolated within the containing bucket. Clamped to the
  /// observed range, so singleton and all-equal sample sets are always
  /// answered exactly. Returns 0 when empty.
  double Quantile(double q) const;

  std::string ToString() const;  ///< "n=... p50=... p95=... p99=... max=..."

 private:
  void GrowToFit(std::int64_t value);

  std::vector<std::int64_t> buckets_;
  std::int64_t width_ = 1;
  std::int64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace mdmesh
