#pragma once
/// \file radix_sort.hpp
/// The one sort of 64-bit integer keys behind the exact latency tails
/// (util::summarize_percentiles over picoseconds, util::percentile over
/// order-preserving keys of doubles) and the trace builders' vertex-ID
/// frontiers (algo::sorted_frontier).

#include <cstdint>
#include <span>

namespace cxlgraph::util {

/// Sorts `keys` ascending with an LSD radix sort over 8-bit digits: one
/// pass finds the bits any key sets, one counts every digit below the
/// highest of them, and one stable scatter runs per digit that not all
/// keys share, ping-ponging between `keys` and `spare` (at least as long;
/// its contents are overwritten). Returns whichever of the two holds the
/// sorted keys, a span of keys.size(). Equal keys are equal integers, so
/// the result is every other sort's.
std::span<std::uint64_t> radix_sort(std::span<std::uint64_t> keys,
                                    std::span<std::uint64_t> spare);

}  // namespace cxlgraph::util
