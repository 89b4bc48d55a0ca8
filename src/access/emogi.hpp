#pragma once
/// \file emogi.hpp
/// EMOGI-style zero-copy access (paper Sec. 3.3.1).
///
/// The GPU reads external memory directly with load instructions at a 32 B
/// alignment; the hardware coalescer merges a warp's adjacent reads into
/// transactions of up to one 128 B cache line. A (small) GPU cache in front
/// of the link absorbs short-range reuse — sublists that were dragged in by
/// a neighbor's aligned fetch (Fig. 2's "Sublist 2 is likely to be on the
/// GPU cache"). The same method runs against host DRAM and CXL memory; only
/// the backend differs, exactly as the paper runs unmodified EMOGI code on
/// both.

#include "access/method.hpp"
#include "cache/sw_cache.hpp"

namespace cxlgraph::access {

struct EmogiParams {
  /// Address alignment (the GPU issues multiples of 32 B).
  std::uint32_t alignment = 32;
  /// GPU cache capacity in front of zero-copy reads. The RTX A5000 has a
  /// 6 MB L2; zero-copy data competes with everything else, so the default
  /// models the slice available to edge data.
  std::uint64_t gpu_cache_bytes = 4ull << 20;
  std::uint32_t cache_ways = 16;

  friend bool operator==(const EmogiParams&, const EmogiParams&) = default;
};

class EmogiAccess final : public AccessMethod {
 public:
  explicit EmogiAccess(const EmogiParams& params);

  void expand(const algo::SublistRef& read,
              std::vector<Transaction>& out) override;
  const std::string& name() const noexcept override { return name_; }
  std::uint32_t alignment() const noexcept override {
    return params_.alignment;
  }
  void reset() override { cache_.reset(); }

  const cache::SwCacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }

 private:
  EmogiParams params_;
  cache::SwCache cache_;
  std::string name_;
  std::vector<std::uint64_t> miss_lines_;  // scratch, reused per expand
};

}  // namespace cxlgraph::access
