#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>

#include "util/radix_sort.hpp"

namespace cxlgraph::util {

namespace {

std::size_t bucket_index(std::uint64_t value) noexcept {
  if (value <= 1) return 0;
  return static_cast<std::size_t>(std::bit_width(value - 1));
}

std::uint64_t bucket_upper(std::size_t index) noexcept {
  return index == 0 ? 1 : (std::uint64_t{1} << index);
}

/// Sorts samples ascending: util::radix_sort over each double's
/// order-preserving 64-bit key (sign bit flipped for positives, every bit
/// for negatives). For NaN-free input the result is std::sort's, except
/// that -0.0 sorts before +0.0 where std::sort may leave them in either
/// order.
void sort_samples(std::vector<double>& samples) {
  const std::size_t n = samples.size();
  if (n < 2) return;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  // Keys and the sort's spare buffer; never read before written.
  const auto buffer = std::make_unique_for_overwrite<std::uint64_t[]>(2 * n);
  const std::span<std::uint64_t> keys(buffer.get(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(samples[i]);
    keys[i] = (bits & kSign) != 0 ? ~bits : bits | kSign;
  }
  const std::span<const std::uint64_t> sorted =
      radix_sort(keys, {buffer.get() + n, n});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = sorted[i];
    samples[i] = std::bit_cast<double>((key & kSign) != 0 ? key ^ kSign : ~key);
  }
}

/// Linear-interpolated percentile over an already-sorted sample vector —
/// the one rank convention percentile() and summarize_percentiles share.
double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

void Log2Histogram::add(std::uint64_t value) noexcept {
  const std::size_t idx = bucket_index(value);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  ++count_;
}

double Log2Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    // Only a populated bucket can satisfy the quantile: with q == 0 the
    // target is 0 and every leading empty bucket trivially reaches it,
    // which used to interpolate into a range holding no samples at all.
    if (buckets_[i] > 0 && next >= target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(bucket_upper(i - 1));
      const double hi = static_cast<double>(bucket_upper(i));
      const double frac =
          (target - cumulative) / static_cast<double>(buckets_[i]);
      return lo + std::max(frac, 0.0) * (hi - lo);
    }
    cumulative = next;
  }
  return static_cast<double>(bucket_upper(buckets_.size() - 1));
}

double percentile(std::vector<double> samples, double pct) {
  sort_samples(samples);
  return percentile_sorted(samples, pct);
}

PercentileSummary summarize_percentiles(std::vector<double> samples) {
  PercentileSummary s;
  if (samples.empty()) return s;
  sort_samples(samples);
  s.count = samples.size();
  double sum = 0.0;
  for (const double x : samples) sum += x;
  s.mean = sum / static_cast<double>(samples.size());
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = percentile_sorted(samples, 50.0);
  s.p95 = percentile_sorted(samples, 95.0);
  s.p99 = percentile_sorted(samples, 99.0);
  return s;
}

StreamingQuantile::StreamingQuantile(double q) : q_(q) {
  if (!(q > 0.0 && q < 1.0)) {
    q_ = std::clamp(q, 1e-6, 1.0 - 1e-6);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increment_[0] = 0.0;
  increment_[1] = q_ / 2.0;
  increment_[2] = q_;
  increment_[3] = (1.0 + q_) / 2.0;
  increment_[4] = 1.0;
}

void StreamingQuantile::add(double x) noexcept {
  if (count_ < 5) {
    height_[count_++] = x;
    if (count_ == 5) {
      std::sort(height_, height_ + 5);
      for (int i = 0; i < 5; ++i) {
        position_[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }
  ++count_;

  // Which marker cell the sample lands in; stretch the extremes.
  int cell;
  if (x < height_[0]) {
    height_[0] = x;
    cell = 0;
  } else if (x >= height_[4]) {
    height_[4] = std::max(height_[4], x);
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= height_[cell + 1]) ++cell;
  }
  for (int i = cell + 1; i < 5; ++i) position_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increment_[i];

  // Nudge the three interior markers toward their desired positions with
  // piecewise-parabolic (fallback: linear) height interpolation.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - position_[i];
    const double below = position_[i] - position_[i - 1];
    const double above = position_[i + 1] - position_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double np = position_[i] + sign;
      const double parabolic =
          height_[i] +
          sign / (position_[i + 1] - position_[i - 1]) *
              ((below + sign) * (height_[i + 1] - height_[i]) / above +
               (above - sign) * (height_[i] - height_[i - 1]) / below);
      if (height_[i - 1] < parabolic && parabolic < height_[i + 1]) {
        height_[i] = parabolic;
      } else {
        const double step = sign > 0 ? height_[i + 1] : height_[i - 1];
        const double gap = sign > 0 ? above : -below;
        height_[i] += sign * (step - height_[i]) / gap;
      }
      position_[i] = np;
    }
  }
}

double StreamingQuantile::estimate() const noexcept {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact from the stored prefix.
    double sorted[5];
    std::copy(height_, height_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const double rank = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min<std::size_t>(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  return height_[2];
}

}  // namespace cxlgraph::util
