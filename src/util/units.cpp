#include "util/units.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cxlgraph::util {

namespace {

/// Throws unless `value` (in `unit`, `ps_per_unit` picoseconds each) is
/// a duration the unchecked conversion maps with a defined result:
/// non-negative, not NaN, and below 2^64 ps once rounded.
void check_duration(double value, double ps_per_unit, const char* unit,
                    std::string_view what) {
  // 2^64 ps, exactly representable: the first value SimTime cannot hold.
  constexpr double kSimTimeLimit = 18446744073709551616.0;
  const double ps = value * ps_per_unit + 0.5;
  if (!(value >= 0.0) || !(ps < kSimTimeLimit)) {
    char got[48];
    std::snprintf(got, sizeof(got), "%g", value);
    throw std::invalid_argument(
        std::string(what) + " must be a finite, non-negative duration in " +
        unit + " that fits in 64-bit picoseconds (got " + got + ")");
  }
}

}  // namespace

SimTime checked_ps_from_us(double us, std::string_view what) {
  check_duration(us, static_cast<double>(kPsPerUs), "microseconds", what);
  return ps_from_us(us);
}

SimTime checked_ps_from_sec(double sec, std::string_view what) {
  check_duration(sec, static_cast<double>(kPsPerSec), "seconds", what);
  return ps_from_sec(sec);
}

double checked_rate(double rate, std::string_view what) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    char got[48];
    std::snprintf(got, sizeof(got), "%g", rate);
    throw std::invalid_argument(std::string(what) +
                                " must be a positive, finite rate (got " +
                                got + ")");
  }
  return rate;
}

std::string format_bytes(double bytes) {
  static constexpr const char* kSuffix[] = {"B", "kB", "MB", "GB", "TB"};
  int unit = 0;
  double v = bytes;
  while (std::fabs(v) >= 1000.0 && unit < 4) {
    v /= 1000.0;
    ++unit;
  }
  char buf[48];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, kSuffix[unit]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, kSuffix[unit]);
  }
  return buf;
}

}  // namespace cxlgraph::util
