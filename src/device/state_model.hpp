#pragma once
/// \file state_model.hpp
/// Thermal throttling of a serving stack, shaped after the CXLSSDEval
/// evaluation suite's measurements on real CXL-SSD hardware
/// (plot_thermal_throttling.py): heat accumulates with every byte moved
/// and dissipates linearly over time; past a thermal budget the stack
/// derates sustained bandwidth until it has cooled below a hysteresis
/// point.
///
/// The device models themselves serve at time-invariant rates, as the
/// paper's prototypes do. The serving layer applies this model once per
/// quantum (serve::ServeConfig::thermal, charged by serve::ReplicaSim on
/// the bytes the quantum moves), so an idle-stack profile never depends
/// on it. The model defaults OFF.

#include <cstdint>

#include "util/units.hpp"

namespace cxlgraph::device {

/// Sustained-bandwidth derating with a heat/cool accumulator.
struct ThermalParams {
  bool enabled = false;
  /// Heat units added per decimal megabyte moved through the stack.
  double heat_per_mb = 1.0;
  /// Heat units dissipated per simulated second (linear cooling).
  double cool_per_sec = 2'850.0;
  /// Heat level at which the stack enters the throttled state (the
  /// thermal budget). Default: ~0.25 s of a 5,700 MB/s channel.
  double throttle_threshold = 1'400.0;
  /// The stack leaves the throttled state once heat falls below
  /// throttle_threshold * hysteresis (0 < hysteresis <= 1).
  double hysteresis = 0.7;
  /// Bandwidth multiplier while throttled (0 < factor <= 1): service
  /// times are divided by this.
  double throttle_factor = 0.4;
};

/// Throws std::invalid_argument on malformed parameters; a no-op when
/// `enabled` is off.
void validate(const ThermalParams& params);

/// Heat/cool accumulator with hysteresis. charge() advances the linear
/// cooling to `now`, adds the transfer's heat, updates the throttled
/// state, and returns the service-time multiplier for this transfer
/// (1.0 cold, 1 / throttle_factor while throttled).
class ThermalState {
 public:
  ThermalState() = default;

  double charge(const ThermalParams& params, util::SimTime now,
                std::uint64_t bytes) {
    if (now > last_update_) {
      heat_ -= params.cool_per_sec * util::sec_from_ps(now - last_update_);
      if (heat_ < 0.0) heat_ = 0.0;
      last_update_ = now;
    }
    heat_ += params.heat_per_mb * static_cast<double>(bytes) / 1.0e6;
    if (heat_ > peak_heat_) peak_heat_ = heat_;
    if (!throttled_ && heat_ > params.throttle_threshold) {
      throttled_ = true;
    } else if (throttled_ &&
               heat_ < params.throttle_threshold * params.hysteresis) {
      throttled_ = false;
    }
    if (!throttled_) return 1.0;
    return 1.0 / params.throttle_factor;
  }

  double heat() const noexcept { return heat_; }
  double peak_heat() const noexcept { return peak_heat_; }
  bool throttled() const noexcept { return throttled_; }

 private:
  double heat_ = 0.0;
  double peak_heat_ = 0.0;
  util::SimTime last_update_ = 0;
  bool throttled_ = false;
};

}  // namespace cxlgraph::device
