#include "util/radix_sort.hpp"

#include <array>
#include <bit>
#include <utility>

namespace cxlgraph::util {

std::span<std::uint64_t> radix_sort(std::span<std::uint64_t> keys,
                                    std::span<std::uint64_t> spare) {
  const std::size_t n = keys.size();
  if (n < 2) return keys;
  constexpr std::size_t kDigitBits = 8;
  constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
  std::uint64_t set_bits = 0;
  for (const std::uint64_t key : keys) set_bits |= key;
  const auto digits =
      (static_cast<std::size_t>(std::bit_width(set_bits)) + kDigitBits - 1) /
      kDigitBits;
  std::array<std::array<std::size_t, kRadix>, 8> counts{};
  for (const std::uint64_t key : keys) {
    for (std::size_t d = 0; d < digits; ++d) {
      ++counts[d][(key >> (kDigitBits * d)) & (kRadix - 1)];
    }
  }
  std::span<std::uint64_t> from = keys;
  std::span<std::uint64_t> to = spare.first(n);
  for (std::size_t d = 0; d < digits; ++d) {
    const std::size_t shift = kDigitBits * d;
    std::array<std::size_t, kRadix>& next = counts[d];
    if (next[(from[0] >> shift) & (kRadix - 1)] == n) continue;  // shared
    std::size_t start = 0;
    for (std::size_t& count : next) start += std::exchange(count, start);
    for (const std::uint64_t key : from) {
      to[next[(key >> shift) & (kRadix - 1)]++] = key;
    }
    std::swap(from, to);
  }
  return from;
}

}  // namespace cxlgraph::util
