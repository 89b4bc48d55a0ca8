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

/// Told a request's ready time at the moment a device fixes it.
class ReadySink {
 public:
  /// `cb` is the continuation the caller passed with the request,
  /// verbatim; `time` is when the data (or a write's ack) is ready to
  /// cross the GPU link, never before now.
  virtual void ready_at(SimTime time, const sim::Callback& cb) = 0;

 protected:
  ~ReadySink() = default;
};

/// Where a device announces one request's ready time: the caller's sink
/// and its continuation. POD, no per-request allocation. A device calls
/// `announce` once per request, at the moment it fixes the ready time and
/// before it pushes any later event, so a sink that pushes `cb` at `time`
/// takes the (time, seq) slot a device-scheduled ready event would take.
struct ReadyFn {
  ReadySink* sink = nullptr;
  sim::Callback cb;

  void announce(SimTime time) const { sink->ready_at(time, cb); }
};

/// Notified when the data has fully arrived at the GPU. A POD
/// continuation (listener + opcode + payload) dispatched through the
/// simulator's handler table.
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
/// at the device (the link already accounted for the upstream hop) and
/// must announce through `ready` when the data will be ready to return.
class MemoryDevice {
 public:
  virtual ~MemoryDevice() = default;

  virtual void read(std::uint64_t addr, std::uint32_t bytes,
                    ReadyFn ready) = 0;

  /// Write path (paper Sec. 5 flags writes as future work; cxlgraph models
  /// them for DRAM and CXL). `ready` announces when the device will have
  /// accepted the data (write completion / NDR). Default: device is
  /// read-only.
  virtual void write(std::uint64_t addr, std::uint32_t bytes, ReadyFn ready);

  /// True when the device announces in non-decreasing ready time: every
  /// announcement is ready no earlier than the one before it. A caller
  /// may then act on an announcement at once where it would otherwise
  /// wait for the ready time (PcieLink's return path does).
  virtual bool announces_in_ready_order() const noexcept { return false; }

  virtual const DeviceCaps& caps() const noexcept = 0;
  virtual const DeviceStats& stats() const noexcept = 0;
};

}  // namespace cxlgraph::device
