#pragma once
/// \file xlfdd.hpp
/// Preset for the XLFDD prototype (Sec. 4.1.1): a PCIe-attached drive with
/// microsecond-latency flash, a lightweight storage interface serving up to
/// 11 MIOPS per drive, a 16 B address alignment, and transfers of any
/// multiple of 16 B up to 2 kB. The paper's testbed uses 16 of them
/// (Table 3), comfortably above the 93.75 MIOPS the analysis requires.

#include "device/storage.hpp"

namespace cxlgraph::device {

/// Parameters for one XLFDD drive.
StorageDriveParams xlfdd_drive_params();

/// The paper's Table-3 array: 16 drives. Striped at 8 kB so a <=2 kB
/// request rarely straddles drives.
inline constexpr unsigned kXlfddArrayDrives = 16;
inline constexpr std::uint32_t kXlfddStripeBytes = 8192;

}  // namespace cxlgraph::device
