#include "device/nvme.hpp"

namespace cxlgraph::device {

StorageDriveParams nvme_drive_params() {
  StorageDriveParams p;
  p.name = "nvme";
  p.min_alignment = 512;   // NVMe minimum LBA granularity
  p.max_transfer = 4096;   // BaM cache-line-sized reads
  p.iops = 1.5e6;          // 4 drives -> the 6 MIOPS the paper assumes
  p.access_latency = util::ps_from_us(12.0);  // storage-class-memory SSD
  p.submission_overhead = util::ps_from_ns(500);  // full NVMe SQ/CQ protocol
  p.drive_link_mbps = 6'400.0;  // PCIe 4.0 x4 effective
  p.queue_depth = 1024;
  return p;
}

}  // namespace cxlgraph::device
