#pragma once
/// \file system_config.hpp
/// Whole-system configuration: which GPU link, which external-memory
/// backends, and all their parameters. Presets reproduce the paper's two
/// testbeds (Tables 3 and 4).

#include <string>

#include "access/bam.hpp"
#include "access/emogi.hpp"
#include "access/uvm.hpp"
#include "access/xlfdd_direct.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/nvme.hpp"
#include "device/pcie.hpp"
#include "device/xlfdd.hpp"
#include "gpusim/engine.hpp"

namespace cxlgraph::core {

/// Which external memory holds the edge list.
enum class BackendKind {
  kHostDram,        ///< local-socket DRAM, EMOGI zero-copy (DRAM 1 / Fig. 8)
  kHostDramRemote,  ///< other-socket DRAM (DRAM 0 / Fig. 8)
  kCxl,             ///< CXL memory pool, EMOGI zero-copy (Sec. 4.2)
  kXlfdd,           ///< low-latency flash array, direct access (Sec. 4.1)
  kBamNvme,         ///< NVMe SSDs behind a BaM software cache
  kUvm,             ///< unified-memory 4 kB paging (extension baseline)
  kTieredDramCxl,   ///< DRAM hot tier + CXL cold tier (extension)
};

enum class Algorithm {
  kBfs,
  kSssp,
  kCc,            ///< connected components (extension)
  kPagerankScan,  ///< one sequential edge-list sweep (extension)
  kBfsDirOpt,     ///< direction-optimizing BFS (extension)
  kSsspDelta,     ///< delta-stepping SSSP (extension)
  kBfsWriteback,  ///< BFS + per-vertex result writes (Sec.-5 extension)
};

std::string to_string(BackendKind kind);
std::string to_string(Algorithm algorithm);

/// Reverse of to_string over every BackendKind / Algorithm; throws
/// std::invalid_argument for unknown names (CLI/bench option parsing).
BackendKind backend_from_name(const std::string& name);
Algorithm algorithm_from_name(const std::string& name);

struct SystemConfig {
  device::PcieGen gpu_link_gen = device::PcieGen::kGen4;
  gpusim::GpuParams gpu;

  device::HostDramParams dram_local;
  device::HostDramParams dram_remote;

  device::CxlDeviceParams cxl;
  unsigned cxl_devices = 5;
  std::uint32_t cxl_interleave_bytes = 4096;

  unsigned xlfdd_drives = device::kXlfddArrayDrives;
  unsigned nvme_drives = device::kNvmeArrayDrives;

  access::EmogiParams emogi;
  access::BamParams bam;
  access::XlfddDirectParams xlfdd;
  access::UvmParams uvm;

  /// BaM cache and EMOGI GPU-cache capacities scale with the edge list, as
  /// the physical capacities are fixed while our graphs are scaled down.
  /// bam: BaM dedicates several GB of a 24 GB GPU to a ~30 GB edge list.
  double bam_cache_fraction = 0.25;
  /// emogi: a 6 MB L2 against a ~30 GB edge list is ~0.02%; keep a floor so
  /// short-range reuse within a frontier is still captured.
  double emogi_cache_fraction = 0.002;
  std::uint64_t emogi_cache_min_bytes = 64ull << 10;
  /// uvm: resident pages bounded by GPU memory (24 GB vs ~30 GB data).
  double uvm_resident_fraction = 0.5;

  /// Tiered backend: fraction of the edge list kept in the DRAM hot tier
  /// (page-rounded range split; pair with degree-sorted reordering so the
  /// prefix holds the hottest sublists).
  double tier_fast_fraction = 0.25;

  /// Sec. 5 ("future GPUs may implement the CXL interface"): when true,
  /// CXL runs bypass the CPU translation hop — the link's per-direction
  /// fixed overheads shrink by `direct_cxl_saving` and the socket hop
  /// disappears, lowering the latency the GPU observes.
  bool gpu_direct_cxl = false;
  util::SimTime direct_cxl_saving = util::ps_from_ns(150);
};

/// The Table-3 testbed: PCIe Gen4 x16 GPU link, 16 XLFDDs, 4 NVMe SSDs,
/// host DRAM for the EMOGI baseline.
SystemConfig table3_system();

/// The Table-4 testbed: PCIe Gen3 x16 GPU link (deliberately downgraded,
/// Sec. 4.2.2), 5 CXL memory devices, dual-socket host DRAM.
SystemConfig table4_system();

}  // namespace cxlgraph::core
