#pragma once
/// \file storage.hpp
/// Generic storage-path device model (GPU-initiated, BaM/XLFDD style).
///
/// The GPU writes submission-queue entries and doorbells in device-visible
/// GPU memory (BAR), the drive fetches them, reads its media, and DMAs data
/// back through the GPU's PCIe link (Sec. 4.1.1). Concurrency is bounded by
/// per-drive queue depth — not by the link's memory-read tags — which is why
/// the paper's Eq. 2 drops the N_max term for storage.
///
/// One parameterized model covers both the XLFDD low-latency-flash drive
/// and conventional NVMe SSDs; see xlfdd.hpp / nvme.hpp for the presets.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "device/pcie.hpp"
#include "util/slot_pool.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {

struct StorageDriveParams {
  std::string name = "drive";
  /// Smallest address alignment / transfer granularity the drive serves.
  std::uint32_t min_alignment = 512;
  /// Largest single transfer per request.
  std::uint32_t max_transfer = 4096;
  /// Sustained random-read IOPS; the controller is modeled as a single
  /// pipelined server with service interval 1/iops, so the paper's
  /// assumption "IOPS do not depend on transfer size" holds by construction.
  double iops = 1.0e6;
  /// Fixed media + controller latency per request.
  SimTime access_latency = util::ps_from_us(10.0);
  /// Command submission overhead (doorbell + SQ fetch).
  SimTime submission_overhead = util::ps_from_ns(250);
  /// Per-drive link bandwidth (its own PCIe slot), MB/s.
  double drive_link_mbps = 3'200.0;
  /// Outstanding requests the drive accepts before host-side queueing.
  std::uint32_t queue_depth = 256;

  /// Write path (Sec.-5 extension). Flash writes are much slower than
  /// reads: program latency dominates and sustained write IOPS sit far
  /// below read IOPS (garbage collection, page programming).
  double write_iops = 0.3e6;
  SimTime program_latency = util::ps_from_us(75.0);
};

struct StorageDriveStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t written_bytes = 0;  // write-path share of `bytes`
  std::uint64_t peak_outstanding = 0;
};

/// A single drive. Data is delivered through the shared GPU link.
class StorageDrive {
 public:
  StorageDrive(Simulator& sim, PcieLink& link,
               const StorageDriveParams& params);

  /// Submits a read; bytes must be within [min_alignment, max_transfer].
  void submit(std::uint64_t addr, std::uint32_t bytes, DoneFn done);

  /// Submits a write: the payload crosses the GPU link upstream, then the
  /// controller programs the media. `done` fires at the write completion.
  void submit_write(std::uint64_t addr, std::uint32_t bytes, DoneFn done);

  const StorageDriveParams& params() const noexcept { return params_; }
  const StorageDriveStats& stats() const noexcept { return stats_; }
  std::uint32_t outstanding() const noexcept { return outstanding_; }

 private:
  /// Pooled per-request state; events carry the slot index.
  struct Pending {
    std::uint32_t bytes = 0;
    bool is_write = false;
    DoneFn done;
  };

  enum Op : std::uint16_t {
    kDataAtLink,   ///< media read done, handing bytes to the shared link
    kDelivered,    ///< shared link delivered the data to the GPU
    kPayloadUp,    ///< write payload DMA'd out of GPU memory
    kProgrammed,   ///< media program complete
  };

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);

  void start(std::uint32_t slot);
  void start_write(std::uint32_t slot);
  void finish(std::uint32_t slot);

  Simulator& sim_;
  PcieLink& link_;
  StorageDriveParams params_;
  /// Controller service intervals: 1/iops for reads, 1/write_iops for
  /// programs.
  SimTime service_interval_;
  SimTime write_interval_;
  double ps_per_byte_drive_link_;
  std::uint16_t listener_ = 0;
  SimTime controller_busy_until_ = 0;
  SimTime drive_link_busy_until_ = 0;
  std::uint32_t outstanding_ = 0;
  util::SlotPool<Pending> pool_;
  std::deque<std::uint32_t> waiting_;
  StorageDriveStats stats_;
};

/// A striped array of identical drives (16 XLFDDs / 4 NVMe SSDs in the
/// paper's testbeds). Requests that straddle a stripe boundary are split and
/// complete when every part has arrived.
class StorageArray {
 public:
  StorageArray(Simulator& sim, PcieLink& link,
               const StorageDriveParams& params, unsigned num_drives,
               std::uint32_t stripe_bytes);

  void submit(std::uint64_t addr, std::uint32_t bytes, DoneFn done);
  void submit_write(std::uint64_t addr, std::uint32_t bytes, DoneFn done);

  unsigned num_drives() const noexcept {
    return static_cast<unsigned>(drives_.size());
  }
  const StorageDrive& drive(unsigned i) const noexcept { return *drives_[i]; }
  const StorageDriveParams& drive_params() const noexcept { return params_; }
  double total_iops() const noexcept {
    return params_.iops * static_cast<double>(drives_.size());
  }

 private:
  /// Join state for a straddling request split across drives, pooled.
  struct Join {
    std::uint32_t remaining = 0;
    DoneFn done;
  };

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);

  template <typename Submit>
  void submit_split(std::uint64_t addr, std::uint32_t bytes, DoneFn done,
                    Submit&& submit_one);

  Simulator& sim_;
  StorageDriveParams params_;
  std::vector<std::unique_ptr<StorageDrive>> drives_;
  std::uint32_t stripe_bytes_;
  std::uint16_t listener_ = 0;
  util::SlotPool<Join> joins_;
};

}  // namespace cxlgraph::device
