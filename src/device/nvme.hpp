#pragma once
/// \file nvme.hpp
/// Preset for conventional NVMe SSDs as used by the BaM baseline.
///
/// BaM's evaluation uses four drives totalling 6 MIOPS of 512 B/4 kB random
/// reads (Sec. 3.3.2; the paper's own testbed matches that figure with four
/// KIOXIA FL6 drives, Table 3). SSDs are optimized for ~4 kB access:
/// reading fewer bytes does not increase IOPS, which the single-server
/// controller model reproduces.

#include "device/storage.hpp"

namespace cxlgraph::device {

/// Parameters for one BaM-class NVMe SSD.
StorageDriveParams nvme_drive_params();

inline constexpr unsigned kNvmeArrayDrives = 4;
inline constexpr std::uint32_t kNvmeStripeBytes = 4096;

}  // namespace cxlgraph::device
