#include "util/units.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace cxlgraph::util {

SimTime checked_ps_from_us(double us, std::string_view what) {
  // 2^64 ps, exactly representable: the first value SimTime cannot hold.
  constexpr double kSimTimeLimit = 18446744073709551616.0;
  const double ps = us * static_cast<double>(kPsPerUs) + 0.5;
  if (!(us >= 0.0) || !(ps < kSimTimeLimit)) {
    char got[48];
    std::snprintf(got, sizeof(got), "%g", us);
    throw std::invalid_argument(
        std::string(what) +
        " must be a finite, non-negative duration in microseconds that "
        "fits in 64-bit picoseconds (got " + got + ")");
  }
  return ps_from_us(us);
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

std::string format_time_ps(SimTime ps) {
  char buf[48];
  const double v = static_cast<double>(ps);
  if (ps < kPsPerNs) {
    std::snprintf(buf, sizeof(buf), "%llu ps",
                  static_cast<unsigned long long>(ps));
  } else if (ps < kPsPerUs) {
    std::snprintf(buf, sizeof(buf), "%.2f ns", v / kPsPerNs);
  } else if (ps < kPsPerMs) {
    std::snprintf(buf, sizeof(buf), "%.3f us", v / kPsPerUs);
  } else if (ps < kPsPerSec) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", v / kPsPerMs);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", v / kPsPerSec);
  }
  return buf;
}

}  // namespace cxlgraph::util
