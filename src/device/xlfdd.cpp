#include "device/xlfdd.hpp"

namespace cxlgraph::device {

StorageDriveParams xlfdd_drive_params() {
  StorageDriveParams p;
  p.name = "xlfdd";
  p.min_alignment = 16;    // the prototype's small-alignment support
  p.max_transfer = 2048;   // any multiple of 16 B up to 2 kB
  p.iops = 11.0e6;         // "up to 11 MIOPS" per drive
  p.access_latency = util::ps_from_us(3.5);  // low-latency flash, <5 us total
  p.submission_overhead = util::ps_from_ns(200);  // lightweight interface,
                                                  // no completion queues
  p.drive_link_mbps = 3'200.0;  // PCIe 3.0 x4 effective
  p.queue_depth = 256;
  return p;
}

}  // namespace cxlgraph::device
