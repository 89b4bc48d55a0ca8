#pragma once
/// \file uvm.hpp
/// Unified-virtual-memory paging baseline (paper Sec. 6, "GPU graph
/// processing on the host DRAM").
///
/// Pre-EMOGI systems place graph data in the host DRAM and rely on CUDA
/// unified memory: a touch of an absent page triggers a fault and a 4 kB
/// page migration. EMOGI showed zero-copy dramatically reduces the RAF
/// versus this approach; cxlgraph includes UVM as an extension baseline so
/// that comparison can be reproduced too. The page cache models GPU-memory
/// residency; each miss is one 4 kB page-fault transaction (carried by a
/// storage-path backend configured with fault-handler latency/throughput).

#include "access/method.hpp"
#include "cache/sw_cache.hpp"

namespace cxlgraph::access {

struct UvmParams {
  std::uint32_t page_bytes = 4096;
  /// GPU-memory page cache capacity (device memory available for pages).
  std::uint64_t resident_bytes = 8ull << 30;
  std::uint32_t cache_ways = 16;

  friend bool operator==(const UvmParams&, const UvmParams&) = default;
};

class UvmAccess final : public AccessMethod {
 public:
  explicit UvmAccess(const UvmParams& params);

  void expand(const algo::SublistRef& read,
              std::vector<Transaction>& out) override;
  const std::string& name() const noexcept override { return name_; }
  std::uint32_t alignment() const noexcept override {
    return params_.page_bytes;
  }
  void reset() override { pages_.reset(); }

 private:
  UvmParams params_;
  cache::SwCache pages_;
  std::string name_;
};

/// Drive parameters modeling the UVM fault path: ~20 us end-to-end fault
/// latency and a fault-handler throughput well below the PCIe link, which
/// is what makes paging slow for random access.
device::StorageDriveParams uvm_fault_engine_params();

}  // namespace cxlgraph::access
