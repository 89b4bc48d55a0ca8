#pragma once
/// \file sw_cache.hpp
/// Set-associative LRU software cache.
///
/// This single model plays three roles, matching the paper:
///  * the CPU simulation behind Fig. 3 ("implementing a software cache to
///    experiment with alignment sizes without hardware constraints");
///  * BaM's software cache in GPU memory (line size = alignment);
///  * the GPU's hardware cache in front of zero-copy (EMOGI/CXL) reads.
/// Lines are addressed by line index; the cache never stores data, only
/// presence, since cxlgraph measures traffic, not values.

#include <cstdint>
#include <vector>

namespace cxlgraph::cache {

struct SwCacheParams {
  /// Total capacity in bytes. 0 disables caching (every access misses).
  std::uint64_t capacity_bytes = 0;
  /// Line (= alignment) size in bytes; must be a power of two.
  std::uint32_t line_bytes = 128;
  /// Associativity; capped at the number of lines.
  std::uint32_t ways = 16;
};

struct SwCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class SwCache {
 public:
  explicit SwCache(const SwCacheParams& params);

  /// Touches the line containing byte address `addr`; returns true on hit.
  /// On miss the line is installed (evicting LRU within its set).
  bool access_line(std::uint64_t line_index);

  /// Touches every line overlapping [addr, addr+len); invokes
  /// `on_miss(line_index)` for each missing line, in ascending order.
  template <typename MissFn>
  void access_range(std::uint64_t addr, std::uint64_t len, MissFn&& on_miss) {
    if (len == 0) return;
    const std::uint64_t first = addr / params_.line_bytes;
    const std::uint64_t last = (addr + len - 1) / params_.line_bytes;
    for (std::uint64_t line = first; line <= last; ++line) {
      if (!access_line(line)) on_miss(line);
    }
  }

  void reset();

  const SwCacheParams& params() const noexcept { return params_; }
  const SwCacheStats& stats() const noexcept { return stats_; }
  std::uint64_t num_sets() const noexcept { return num_sets_; }
  std::uint32_t ways() const noexcept { return ways_; }
  bool enabled() const noexcept { return enabled_; }

 private:
  SwCacheParams params_;
  bool enabled_ = false;
  std::uint64_t num_sets_ = 0;
  std::uint32_t ways_ = 0;

  /// tags_[set * ways_ + way], each set ordered most-recent first: way 0
  /// is the MRU line, the last way the LRU one. kEmpty marks an invalid
  /// way; invalid ways only ever trail the valid ones.
  std::vector<std::uint64_t> tags_;

  SwCacheStats stats_;

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
};

}  // namespace cxlgraph::cache
