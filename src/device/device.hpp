#pragma once
/// \file device.hpp
/// Common types for external-memory device models.
///
/// Two access paths exist, mirroring paper Section 3.2:
///  * memory path (host DRAM, CXL): load/store reads issued over the GPU's
///    PCIe link; the link's outstanding-read tag budget (N_max) applies.
///  * storage path (XLFDD, NVMe): the GPU rings device doorbells and data is
///    DMA'd back; concurrency is bounded by device queue depths instead.
/// Both paths share the link's return-bandwidth serialization.

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulator.hpp"

namespace cxlgraph::device {

using sim::SimTime;
using sim::Simulator;

/// Notified when a device has the requested data ready to cross the GPU
/// link. A POD continuation (listener + opcode + payload) dispatched
/// through the simulator's handler table — no per-request allocation.
using ReadyFn = sim::Callback;
/// Notified when the data has fully arrived at the GPU.
using DoneFn = sim::Callback;

struct DeviceCaps {
  std::string name;
  /// Smallest addressable unit for a request (paper's alignment floor).
  std::uint32_t min_alignment = 1;
  /// Largest single request the device accepts.
  std::uint32_t max_transfer = 1u << 30;
  /// true → load/store semantics (PCIe tag budget applies).
  bool memory_semantics = true;
};

struct DeviceStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
};

/// Base class for device models. `read` is called when the request arrives
/// at the device (the link already accounted for the upstream hop) and must
/// invoke `ready` once the data is ready to be returned.
class MemoryDevice {
 public:
  virtual ~MemoryDevice() = default;

  virtual void read(std::uint64_t addr, std::uint32_t bytes,
                    ReadyFn ready) = 0;

  /// Write path (paper Sec. 5 flags writes as future work; cxlgraph models
  /// them for DRAM and CXL). `ready` fires when the device has accepted
  /// the data (write completion / NDR). Default: device is read-only.
  virtual void write(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready);

  virtual const DeviceCaps& caps() const noexcept = 0;
  virtual const DeviceStats& stats() const noexcept = 0;
};

}  // namespace cxlgraph::device
