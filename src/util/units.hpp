#pragma once
/// \file units.hpp
/// Units and formatting helpers.
///
/// Simulated time is kept in integer picoseconds (SimTime). At the largest
/// bandwidth we model (24 GB/s) one byte takes ~41.7 ps, so picoseconds give
/// sub-byte resolution while a 64-bit counter still covers ~213 days.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace cxlgraph::util {

/// Simulated time in picoseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kPsPerNs = 1'000;
inline constexpr SimTime kPsPerUs = 1'000'000;
inline constexpr SimTime kPsPerMs = 1'000'000'000;
inline constexpr SimTime kPsPerSec = 1'000'000'000'000ULL;

constexpr SimTime ps_from_ns(double ns) noexcept {
  return static_cast<SimTime>(ns * static_cast<double>(kPsPerNs) + 0.5);
}
constexpr SimTime ps_from_us(double us) noexcept {
  return static_cast<SimTime>(us * static_cast<double>(kPsPerUs) + 0.5);
}
constexpr SimTime ps_from_sec(double sec) noexcept {
  return static_cast<SimTime>(sec * static_cast<double>(kPsPerSec) + 0.5);
}
/// ps_from_us for a value that crosses a trust boundary (a CLI flag, a
/// config field): identical result for every representable duration, but
/// throws std::invalid_argument naming `what` when `us` is negative, NaN,
/// infinite, or too long for SimTime — the casts ps_from_us leaves
/// undefined.
SimTime checked_ps_from_us(double us, std::string_view what);
/// The same check for ps_from_sec.
SimTime checked_ps_from_sec(double sec, std::string_view what);
/// ps_per_byte for a device bandwidth in MB/s that transfer durations
/// are derived from: returns ps_per_byte(mb_per_sec) when the longest
/// transfer a std::uint32_t byte count can name still rounds to a
/// SimTime, (2^32 - 1) * ps_per_byte + 0.5 < 2^64 (about 2.3e-4 MB/s and
/// up); otherwise throws std::invalid_argument naming `what`. Zero,
/// negative, NaN and infinite bandwidths throw too: the first three make
/// the durations undefined casts, the last makes them zero.
double checked_ps_per_byte(double mb_per_sec, std::string_view what);
/// The service interval of a device serving `per_sec` operations per
/// second (an IOPS figure), kPsPerSec / per_sec rounded to picoseconds:
/// throws std::invalid_argument naming `what` unless `per_sec` is
/// positive, finite and the interval fits in SimTime.
SimTime checked_interval_ps(double per_sec, std::string_view what);

/// `ps` stretched by `factor`, rounded to picoseconds as the serving
/// layer stretches a throttled or derated quantum: identical to
/// static_cast<SimTime>(ps * factor + 0.5) whenever that is defined, but
/// throws std::overflow_error naming `what` unless ps * factor + 0.5 lies
/// in [0, 2^64).
SimTime checked_stretch_ps(SimTime ps, double factor, std::string_view what);
/// Throws the std::overflow_error checked_add_ps reports for a + b.
[[noreturn]] void throw_add_overflow(SimTime a, SimTime b,
                                     std::string_view what);
/// a + b, throwing std::overflow_error naming `what` when the sum would
/// wrap past 2^64 ps. Inline: every faulted quantum's delays add through
/// it.
inline SimTime checked_add_ps(SimTime a, SimTime b, std::string_view what) {
  if (b > std::numeric_limits<SimTime>::max() - a) {
    throw_add_overflow(a, b, what);
  }
  return a + b;
}

constexpr double ns_from_ps(SimTime ps) noexcept {
  return static_cast<double>(ps) / static_cast<double>(kPsPerNs);
}
constexpr double us_from_ps(SimTime ps) noexcept {
  return static_cast<double>(ps) / static_cast<double>(kPsPerUs);
}
constexpr double sec_from_ps(SimTime ps) noexcept {
  return static_cast<double>(ps) / static_cast<double>(kPsPerSec);
}

/// Picoseconds per byte for a bandwidth given in MB/s (decimal MB, as in the
/// paper's "24,000 MB/sec").
constexpr double ps_per_byte(double mb_per_sec) noexcept {
  // 1 MB/s == 1e6 B/s; time per byte = 1/(1e6 * mbps) sec = 1e6/mbps ps.
  return 1.0e6 / mb_per_sec;
}

/// Throughput in MB/s given bytes moved over a simulated duration.
constexpr double mbps_from(std::uint64_t bytes, SimTime elapsed) noexcept {
  if (elapsed == 0) return 0.0;
  return static_cast<double>(bytes) / sec_from_ps(elapsed) / 1.0e6;
}

/// "1.23 GB", "456.0 MB", "789 B" style formatting (decimal units).
std::string format_bytes(double bytes);

inline std::string format_bytes(std::uint64_t bytes) {
  return format_bytes(static_cast<double>(bytes));
}

}  // namespace cxlgraph::util
