#include "cache/sw_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cxlgraph::cache {

SwCache::SwCache(const SwCacheParams& params) : params_(params) {
  if (params.line_bytes == 0 || !std::has_single_bit(params.line_bytes)) {
    throw std::invalid_argument("SwCache: line size must be a power of two");
  }
  if (params.capacity_bytes == 0) {
    enabled_ = false;
    return;
  }
  enabled_ = true;
  std::uint64_t num_lines = params.capacity_bytes / params.line_bytes;
  if (num_lines == 0) num_lines = 1;
  ways_ = params.ways == 0 ? 1 : params.ways;
  if (ways_ > num_lines) ways_ = static_cast<std::uint32_t>(num_lines);
  num_sets_ = num_lines / ways_;
  if (num_sets_ == 0) num_sets_ = 1;
  // Round set count down to a power of two so the index is a mask; this
  // keeps capacity within a factor <2 of the request, which is fine for a
  // traffic model.
  num_sets_ = std::bit_floor(num_sets_);
  tags_.assign(num_sets_ * ways_, kEmpty);
}

bool SwCache::access_line(std::uint64_t line_index) {
  if (!enabled_) {
    ++stats_.misses;
    return false;
  }
  std::uint64_t* set = tags_.data() + (line_index & (num_sets_ - 1)) * ways_;
  std::uint32_t w = 0;
  while (w < ways_ && set[w] != line_index) ++w;
  const bool hit = w < ways_;
  if (hit) {
    ++stats_.hits;
  } else {
    // The last way holds the LRU line, or is invalid if any way is.
    ++stats_.misses;
    w = ways_ - 1;
  }
  // Ways [0, w) age by one; the touched line becomes the MRU.
  std::copy_backward(set, set + w, set + w + 1);
  set[0] = line_index;
  return hit;
}

void SwCache::reset() {
  if (enabled_) tags_.assign(tags_.size(), kEmpty);
  stats_ = SwCacheStats{};
}

}  // namespace cxlgraph::cache
