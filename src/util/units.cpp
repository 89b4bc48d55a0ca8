#include "util/units.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace cxlgraph::util {

namespace {

/// 2^64 ps, exactly representable: the first value SimTime cannot hold.
constexpr double kSimTimeLimit = 18446744073709551616.0;

/// Throws unless `value` (in `unit`, `ps_per_unit` picoseconds each) is
/// a duration the unchecked conversion maps with a defined result:
/// non-negative, not NaN, and below 2^64 ps once rounded.
void check_duration(double value, double ps_per_unit, const char* unit,
                    std::string_view what) {
  const double ps = value * ps_per_unit + 0.5;
  if (!(value >= 0.0) || !(ps < kSimTimeLimit)) {
    char got[48];
    std::snprintf(got, sizeof(got), "%g", value);
    throw std::invalid_argument(
        std::string(what) + " must be a finite, non-negative duration in " +
        unit + " that fits in 64-bit picoseconds (got " + got + ")");
  }
}

/// Throws std::invalid_argument: `rate` is not positive and finite, or
/// a duration derived from it does not fit in SimTime.
[[noreturn]] void reject_rate(double rate, std::string_view what) {
  char got[48];
  std::snprintf(got, sizeof(got), "%g", rate);
  throw std::invalid_argument(
      std::string(what) +
      " must be a positive, finite rate whose durations fit in 64-bit "
      "picoseconds (got " +
      got + ")");
}

bool positive_finite(double rate) {
  return rate > 0.0 && std::isfinite(rate);
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

double checked_ps_per_byte(double mb_per_sec, std::string_view what) {
  // The longest transfer a std::uint32_t byte count names.
  constexpr double kMaxTransferBytes = 4294967295.0;
  if (!positive_finite(mb_per_sec) ||
      !(kMaxTransferBytes * ps_per_byte(mb_per_sec) + 0.5 < kSimTimeLimit)) {
    reject_rate(mb_per_sec, what);
  }
  return ps_per_byte(mb_per_sec);
}

SimTime checked_interval_ps(double per_sec, std::string_view what) {
  if (!positive_finite(per_sec)) reject_rate(per_sec, what);
  const double ps = static_cast<double>(kPsPerSec) / per_sec + 0.5;
  if (!(ps < kSimTimeLimit)) reject_rate(per_sec, what);
  return static_cast<SimTime>(ps);
}

SimTime checked_stretch_ps(SimTime ps, double factor, std::string_view what) {
  const double stretched = static_cast<double>(ps) * factor + 0.5;
  if (!(stretched >= 0.0 && stretched < kSimTimeLimit)) {
    char got[48];
    std::snprintf(got, sizeof(got), "%g", factor);
    throw std::overflow_error(std::string(what) + ": " + std::to_string(ps) +
                              " ps x " + got +
                              " overflows 64-bit picoseconds");
  }
  return static_cast<SimTime>(stretched);
}

void throw_add_overflow(SimTime a, SimTime b, std::string_view what) {
  throw std::overflow_error(std::string(what) + ": " + std::to_string(a) +
                            " ps + " + std::to_string(b) +
                            " ps overflows 64-bit picoseconds");
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
