#include "obs/sampler.hpp"

#include <utility>

#include "util/stats.hpp"

namespace cxlgraph::obs {

std::uint32_t TimeSeriesSampler::channel(const std::string& name,
                                         Reduce reduce) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(Channel{name, reduce, {}});
  by_name_.emplace(name, id);
  return id;
}

void TimeSeriesSampler::record(std::uint32_t ch, util::SimTime t,
                               double value) {
  Channel& c = channels_[ch];
  const std::uint64_t index = t / kQuantum;
  if (c.buckets.empty() || c.buckets.back().index != index) {
    c.buckets.push_back(Bucket{index, value, value, value, value, 1});
    return;
  }
  Bucket& b = c.buckets.back();
  b.last = value;
  if (value < b.min) b.min = value;
  if (value > b.max) b.max = value;
  b.sum += value;
  ++b.count;
}

bool TimeSeriesSampler::empty() const noexcept {
  for (const Channel& c : channels_) {
    if (!c.buckets.empty()) return false;
  }
  return true;
}

std::vector<WindowSeries::Window> WindowSeries::fold(
    std::size_t windows, double horizon_sec,
    std::uint32_t* out_of_horizon) const {
  std::vector<Window> out;
  if (out_of_horizon != nullptr) *out_of_horizon = 0;
  if (windows == 0 || samples_.empty() || horizon_sec <= 0.0) return out;
  const double span = horizon_sec / static_cast<double>(windows);
  std::vector<std::vector<double>> values(windows);
  std::uint32_t dropped = 0;
  for (const Sample& s : samples_) {
    if (s.t_sec > horizon_sec) {
      // Out of horizon: dropped and counted, never clamped into the last
      // window (that inflated its count and percentiles).
      ++dropped;
      continue;
    }
    auto w = static_cast<std::size_t>(s.t_sec / span);
    if (w >= windows) w = windows - 1;  // the horizon edge lands inside
    values[w].push_back(s.value);
  }
  if (out_of_horizon != nullptr) *out_of_horizon = dropped;
  out.resize(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    Window& win = out[w];
    win.start_sec = span * static_cast<double>(w);
    win.end_sec = span * static_cast<double>(w + 1);
    win.count = static_cast<std::uint32_t>(values[w].size());
    if (!values[w].empty()) {
      win.p50 = util::percentile(values[w], 50.0);
      win.p99 = util::percentile(std::move(values[w]), 99.0);
    }
  }
  return out;
}

}  // namespace cxlgraph::obs
