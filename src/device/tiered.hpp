#pragma once
/// \file tiered.hpp
/// Tiered placement of one address space across two memory devices.
///
/// The paper's evaluation system places data with Linux NUMA policies
/// (set_mempolicy before cudaMallocManaged, Sec. 4.2.1). Generalizing
/// that: a deployment can split the edge list between a small fast tier
/// (host DRAM) and a large cheap tier (CXL / flash-backed CXL). Combined
/// with degree-sorted reordering (hot hubs first), a *range* split puts
/// the most-touched sublists in DRAM — the natural way to spend a limited
/// DRAM budget under the paper's cost argument. Addresses below
/// `fast_bytes` go to the fast device, the rest to the slow one.

#include <memory>

#include "device/device.hpp"

namespace cxlgraph::device {

struct TieredMemoryParams {
  /// Bytes served by the fast device (prefix of the space).
  std::uint64_t fast_bytes = 0;
};

/// Routes reads/writes to `fast` or `slow` by address. Requests are
/// assumed not to straddle the placement boundary (sublist chunks are
/// <=2 kB and boundaries are page-aligned; straddlers route by start).
class TieredMemory final : public MemoryDevice {
 public:
  TieredMemory(MemoryDevice& fast, MemoryDevice& slow,
               const TieredMemoryParams& params);

  void read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) override;
  void write(std::uint64_t addr, std::uint32_t bytes,
             ReadyFn ready) override;
  const DeviceCaps& caps() const noexcept override { return caps_; }
  const DeviceStats& stats() const noexcept override;

  /// Which device an address routes to (exposed for tests/benches).
  bool is_fast(std::uint64_t addr) const noexcept {
    return addr < params_.fast_bytes;
  }

  std::uint64_t fast_requests() const noexcept { return fast_requests_; }
  std::uint64_t slow_requests() const noexcept { return slow_requests_; }

 private:
  MemoryDevice& fast_;
  MemoryDevice& slow_;
  TieredMemoryParams params_;
  DeviceCaps caps_;
  mutable DeviceStats aggregate_stats_;
  std::uint64_t fast_requests_ = 0;
  std::uint64_t slow_requests_ = 0;
};

}  // namespace cxlgraph::device
