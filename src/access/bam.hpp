#pragma once
/// \file bam.hpp
/// BaM-style access (paper Sec. 3.3.2): a software cache in GPU memory in
/// front of NVMe SSDs, fetching whole cache lines on miss. Line size equals
/// the address alignment, so d = a; BaM's evaluation mainly uses 4 kB lines
/// because four SSDs at 6 MIOPS need d = W/S ≈ 4 kB to saturate the link.

#include "access/method.hpp"
#include "cache/sw_cache.hpp"

namespace cxlgraph::access {

struct BamParams {
  /// Cache-line size = address alignment (BaM sweeps 512 B..8 kB).
  std::uint32_t line_bytes = 4096;
  /// GPU-memory software cache capacity (BaM dedicates several GB).
  std::uint64_t cache_bytes = 8ull << 30;
  std::uint32_t cache_ways = 16;

  friend bool operator==(const BamParams&, const BamParams&) = default;
};

class BamAccess final : public AccessMethod {
 public:
  explicit BamAccess(const BamParams& params);

  void expand(const algo::SublistRef& read,
              std::vector<Transaction>& out) override;
  const std::string& name() const noexcept override { return name_; }
  std::uint32_t alignment() const noexcept override {
    return params_.line_bytes;
  }
  void reset() override { cache_.reset(); }

  const cache::SwCacheStats& cache_stats() const noexcept {
    return cache_.stats();
  }

 private:
  BamParams params_;
  cache::SwCache cache_;
  std::string name_;
};

}  // namespace cxlgraph::access
