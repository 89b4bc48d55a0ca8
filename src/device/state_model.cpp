#include "device/state_model.hpp"

#include <stdexcept>

namespace cxlgraph::device {

void validate(const ThermalParams& params) {
  if (!params.enabled) return;
  if (!(params.heat_per_mb >= 0.0) || !(params.cool_per_sec >= 0.0) ||
      !(params.throttle_threshold > 0.0) ||
      !(params.hysteresis > 0.0 && params.hysteresis <= 1.0) ||
      !(params.throttle_factor > 0.0 && params.throttle_factor <= 1.0)) {
    throw std::invalid_argument("ThermalParams: bad parameters");
  }
}

}  // namespace cxlgraph::device
