#pragma once
/// \file stats.hpp
/// Streaming statistics and histograms used throughout the simulator for
/// instrumentation (request sizes, latencies, queue depths, ...).

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace cxlgraph::util {

/// Single-pass mean/min/max/sum accumulator (Welford's running mean).
class OnlineStats {
 public:
  void add(double x) noexcept {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = x < min_ ? x : min_;
      max_ = x > max_ ? x : max_;
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
  }

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Power-of-two bucketed histogram for non-negative integer samples
/// (latencies in ns, sizes in bytes, ...). Bucket i holds values in
/// [2^(i-1)+1 .. 2^i] with bucket 0 holding {0, 1}.
class Log2Histogram {
 public:
  void add(std::uint64_t value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  /// Approximate quantile (q in [0,1]) assuming uniform fill within buckets.
  double quantile(double q) const noexcept;

  const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Exact percentile from a sample vector (copies + sorts; test/report use).
/// The sort is a radix sort: for NaN-free samples the result is that of a
/// comparison sort, bit for bit.
double percentile(std::vector<double> samples, double pct);

/// Exact tail summary of a sample set: the numbers a latency report leads
/// with, in microseconds. Computed from picosecond samples by one radix
/// sort (linear in the sample count); the mean is summed in sorted order,
/// so every field equals that of a comparison sort of the samples
/// converted to microseconds, bit for bit.
struct PercentileSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  friend bool operator==(const PercentileSummary&, const PercentileSummary&) = default;
};
PercentileSummary summarize_percentiles(std::vector<SimTime> samples_ps);

/// Streaming single-quantile estimator (the P² algorithm, Jain & Chlamtac
/// 1985): five markers, O(1) memory, no stored samples. Exact for the
/// first five observations, a piecewise-parabolic estimate afterwards.
/// Deterministic in the insertion sequence.
class StreamingQuantile {
 public:
  /// q in (0, 1), e.g. 0.99 for p99.
  explicit StreamingQuantile(double q);

  void add(double x) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  double quantile() const noexcept { return q_; }
  /// Current estimate; 0 before the first sample.
  double estimate() const noexcept;

 private:
  double q_;
  std::uint64_t count_ = 0;
  double height_[5] = {};    // marker heights (sample values)
  double position_[5] = {};  // actual marker positions (1-based ranks)
  double desired_[5] = {};   // desired marker positions
  double increment_[5] = {}; // desired-position increments per sample
};

}  // namespace cxlgraph::util
