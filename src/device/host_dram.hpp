#pragma once
/// \file host_dram.hpp
/// Host DRAM as external memory (the EMOGI baseline).
///
/// DRAM IOPS and channel bandwidth are far above what the GPU's PCIe link
/// can consume ("the IOPS of the host DRAM-based external memory is
/// excessively high", Sec. 3.3.1), so the model is a fixed access latency
/// plus an optional extra socket hop: the paper's dual-socket system (Fig. 8)
/// shows DRAM 0 (remote to the GPU) marginally slower than DRAM 1 (local).

#include "device/device.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {

struct HostDramParams {
  /// Memory-controller + DIMM access latency.
  SimTime access_latency = util::ps_from_ns(150);
  /// Extra hop when the DIMMs hang off the other socket (UPI crossing).
  SimTime socket_hop = 0;
  /// Aggregate channel bandwidth; 8-channel DDR4/DDR5 is never the
  /// bottleneck behind a x16 link but is modeled for completeness.
  double channel_bandwidth_mbps = 150'000.0;
};

class HostDram final : public MemoryDevice {
 public:
  HostDram(Simulator& sim, const HostDramParams& params,
           std::string name = "host-dram");

  void read(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready) override;
  void write(std::uint64_t addr, std::uint32_t bytes,
             ReadyFn ready) override;
  bool announces_in_ready_order() const noexcept override { return true; }
  const DeviceCaps& caps() const noexcept override { return caps_; }
  const DeviceStats& stats() const noexcept override { return stats_; }

 private:
  Simulator& sim_;
  HostDramParams params_;
  double ps_per_byte_;
  SimTime channel_busy_until_ = 0;
  DeviceCaps caps_;
  DeviceStats stats_;
};

}  // namespace cxlgraph::device
