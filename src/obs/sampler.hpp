#pragma once
/// \file sampler.hpp
/// Windowed time-series sampling over simulated time.
///
/// Two shapes live here:
///
/// `TimeSeriesSampler` — fixed-quantum channels. A channel is a named
/// series (e.g. "serve/queue_depth"); record(t, v) folds the sample
/// into the bucket t/kQuantum, keeping last/min/max/sum/count per
/// bucket. Buckets are stored sparsely in recording order, so a probe
/// that fires on every simulator event costs one compare + a few
/// stores, and silent stretches cost nothing. Channels export as
/// Chrome counter tracks ('C' events) next to the span trace.
///
/// `WindowSeries` — equal slices of a known horizon, folded on demand
/// into per-window counts and exact percentiles. `serve::soak_windows`
/// folds through it, which is where the p99-per-window table of
/// `bench_serve --soak` comes from (same bucket rounding, same
/// `util::percentile` rank convention).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace cxlgraph::obs {

class TimeSeriesSampler {
 public:
  /// How a channel's bucket collapses to the one number a counter track
  /// plots: the last sample (gauges: queue depth, heat), the bucket sum
  /// (rates: bytes, events), or the bucket max (high-water marks).
  enum class Reduce { kLast, kSum, kMax };

  /// Bucket width: one counter-track point per 50 us of simulated time.
  static constexpr util::SimTime kQuantum = util::kPsPerUs * 50;

  /// Returns the channel id for `name`, creating it on first use.
  std::uint32_t channel(const std::string& name,
                        Reduce reduce = Reduce::kLast);

  void record(std::uint32_t ch, util::SimTime t, double value);

  struct Bucket {
    std::uint64_t index = 0;  ///< bucket start = index * kQuantum
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0;

    double reduced(Reduce r) const noexcept {
      switch (r) {
        case Reduce::kSum: return sum;
        case Reduce::kMax: return max;
        default: return last;
      }
    }
  };

  std::size_t num_channels() const noexcept { return channels_.size(); }
  const std::string& name(std::uint32_t ch) const {
    return channels_[ch].name;
  }
  Reduce reduce(std::uint32_t ch) const { return channels_[ch].reduce; }
  const std::vector<Bucket>& series(std::uint32_t ch) const {
    return channels_[ch].buckets;
  }
  bool empty() const noexcept;

 private:
  struct Channel {
    std::string name;
    Reduce reduce = Reduce::kLast;
    std::vector<Bucket> buckets;
  };

  std::vector<Channel> channels_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
};

/// Samples tagged with a time in seconds, folded into `n` equal windows
/// of a caller-supplied horizon.
class WindowSeries {
 public:
  void record(double t_sec, double value) {
    samples_.push_back(Sample{t_sec, value});
  }
  std::size_t size() const noexcept { return samples_.size(); }

  struct Window {
    double start_sec = 0.0;
    double end_sec = 0.0;
    std::uint32_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  /// Buckets samples into `windows` equal slices of [0, horizon_sec].
  /// A sample at exactly the horizon lands in the last window (the soak
  /// convention: the final completion defines the horizon); samples
  /// strictly *past* the horizon are dropped — not clamped into the last
  /// window, which would silently inflate its count and percentiles —
  /// and counted into `*out_of_horizon` when non-null. Empty when
  /// `windows` is 0, there are no samples, or the horizon is degenerate.
  std::vector<Window> fold(std::size_t windows, double horizon_sec,
                           std::uint32_t* out_of_horizon = nullptr) const;

 private:
  struct Sample {
    double t_sec;
    double value;
  };
  std::vector<Sample> samples_;
};

}  // namespace cxlgraph::obs
