#pragma once
/// \file pcie.hpp
/// Model of the PCIe link between the GPU and the host.
///
/// The paper's throughput model (Eq. 2) is
///     T = min(S·d, N_max·d/L, W)
/// and this link model is where the last two terms come from:
///  * W  — returned data is serialized through the link at the effective
///         bandwidth (24,000 MB/s for Gen4 x16, 12,000 for Gen3 x16);
///  * N_max — load/store (memory-path) reads each hold one of the link's
///         outstanding-read tags from issue until the data lands, so
///         Little's law caps memory-path throughput at N_max·d/L.
/// Storage-path DMA shares the bandwidth serialization but not the tags
/// (paper Sec. 3.2: "this limit by PCIe is imposed for memory access but
/// not for storage access").

#include <cstdint>
#include <deque>
#include <vector>

#include "device/device.hpp"
#include "util/slot_pool.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {

/// PCIe generations the paper discusses, with the effective bandwidths and
/// outstanding-read limits it uses for a x16 link.
enum class PcieGen { kGen3, kGen4, kGen5 };

struct PcieLinkParams {
  /// Effective data bandwidth in MB/s (paper uses effective, not raw).
  double bandwidth_mbps = 24'000.0;
  /// Maximum outstanding memory reads (tags). 256 for Gen3, 768 for Gen4/5.
  std::uint32_t n_max = 768;
  /// Fixed one-way request latency (GPU issue -> device), covering GPU LSU,
  /// root complex, and link propagation.
  SimTime request_overhead = util::ps_from_ns(450);
  /// Fixed one-way response latency (link -> GPU register file).
  SimTime response_overhead = util::ps_from_ns(450);
};

/// x16 link presets matching the paper's numbers.
PcieLinkParams pcie_x16(PcieGen gen);

struct PcieLinkStats {
  std::uint64_t memory_reads = 0;
  std::uint64_t memory_writes = 0;
  std::uint64_t storage_deliveries = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t bytes_written = 0;
  /// Completion-time minus issue-time for memory reads, in microseconds.
  util::OnlineStats memory_read_latency_us;
  /// Outstanding-tag count sampled at each memory-read issue.
  util::OnlineStats tags_in_use;
  /// Simulated time the return (device -> GPU) half spent transferring.
  SimTime return_busy_time = 0;
  /// Simulated time the upstream (GPU -> device) half spent transferring.
  /// The link is full duplex, so the two are tracked independently; both
  /// memory-path writes and storage write-payload DMA charge this half.
  SimTime upstream_busy_time = 0;
  /// Total active-transfer time across both halves.
  SimTime busy_time() const noexcept {
    return return_busy_time + upstream_busy_time;
  }
};

/// The link. All GPU-visible external-memory traffic flows through one
/// instance; devices hang off it.
///
/// Devices announce a request's ready time to the link when they fix it
/// (ReadySink). A write's ack, and a read's return on a device that makes
/// no ready-order promise, wait for a link event at the ready time. A
/// read's return on a device that announces in ready order is serialized
/// at the announcement and its delivery pushed at once, one event fewer
/// per read with the same simulated result; pcie.cpp gives the argument
/// and the conditions under which the link holds returns instead.
class PcieLink : private ReadySink {
 public:
  PcieLink(Simulator& sim, const PcieLinkParams& params);

  /// Memory-path read: acquires a tag (queueing if none are free), delivers
  /// the request to `device` after the upstream hop, serializes the returned
  /// bytes at W, and finally invokes `done` at the GPU.
  void memory_read(MemoryDevice& device, std::uint64_t addr,
                   std::uint32_t bytes, DoneFn done);

  /// Storage-path delivery: called by a storage device when its data is
  /// ready; serializes the bytes at W and invokes `done` at the GPU.
  void storage_deliver(std::uint32_t bytes, DoneFn done);

  /// Memory-path write: acquires a tag (CXL.mem writes expect completions),
  /// serializes the payload on the upstream half of the full-duplex link,
  /// hands it to the device, and invokes `done` when the device acks.
  void memory_write(MemoryDevice& device, std::uint64_t addr,
                    std::uint32_t bytes, DoneFn done);

  /// Raw upstream transfer (storage-path writes: the drive DMA-reads the
  /// payload out of GPU memory). No tag; `done` fires when the last byte
  /// has left the GPU.
  void upstream_transfer(std::uint32_t bytes, DoneFn done);

  const PcieLinkParams& params() const noexcept { return params_; }
  const PcieLinkStats& stats() const noexcept { return stats_; }
  std::uint32_t tags_in_use() const noexcept { return tags_in_use_; }

 private:
  /// In-flight request state, pooled and addressed by slot index; events
  /// carry the slot in their payload instead of capturing state.
  struct PendingRead {
    MemoryDevice* device = nullptr;
    std::uint64_t addr = 0;
    std::uint32_t bytes = 0;
    bool is_write = false;
    DoneFn done;
    SimTime issue_time = 0;
  };

  enum Op : std::uint16_t {
    kReadAtDevice,     ///< request crossed the upstream hop
    kReadReady,        ///< device has the data (held returns only)
    kReadDelivered,    ///< last byte + response overhead at the GPU
    kWriteAtDevice,    ///< write payload + request hop at the device
    kWriteAccepted,    ///< device ack'd the write
    kWriteDelivered,   ///< completion back at the GPU
    kStorageDelivered, ///< storage DMA fully returned
  };

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);
  /// A device's announcement for the request in slot `cb.a`.
  void ready_at(SimTime time, const sim::Callback& cb) override;

  void start_memory_read(std::uint32_t slot);
  void start_memory_write(std::uint32_t slot);
  void release_tag_and_admit();
  /// Serializes `bytes` through the return path starting no earlier than
  /// `ready`; returns the time the last byte arrives at the GPU.
  SimTime serialize_return(std::uint32_t bytes, SimTime ready);
  /// Same for the upstream (GPU -> host) half of the full-duplex link.
  SimTime serialize_upstream(std::uint32_t bytes);

  Simulator& sim_;
  PcieLinkParams params_;
  double ps_per_byte_;
  std::uint16_t listener_ = 0;
  SimTime return_busy_until_ = 0;
  SimTime upstream_busy_until_ = 0;
  /// response_overhead + the shortest return transfer > request_overhead:
  /// no request hop ends in the span a delivery pushed at the
  /// announcement may pass.
  bool return_covers_request_ = false;
  /// Ready time of the last return serialized.
  SimTime last_return_ready_ = 0;
  /// Memory writes issued and not yet delivered.
  std::uint32_t writes_in_flight_ = 0;
  /// Returns waiting for their kReadReady.
  std::uint32_t held_returns_ = 0;
  /// Set by the first storage-path transfer, for good.
  bool carries_storage_ = false;
  std::uint32_t tags_in_use_ = 0;
  util::SlotPool<PendingRead> pool_;
  std::deque<std::uint32_t> waiting_;
  PcieLinkStats stats_;
};

}  // namespace cxlgraph::device
