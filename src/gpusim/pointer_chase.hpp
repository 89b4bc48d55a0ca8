#pragma once
/// \file pointer_chase.hpp
/// GPU pointer-chase latency probe (paper Appendix B, Fig. 9).
///
/// A single warp repeatedly reads a 128 B pointer whose value names the next
/// address, so exactly one read is in flight at a time and the elapsed time
/// per hop is the external-memory latency as seen from the GPU.

#include <cstdint>
#include <vector>

#include "device/pcie.hpp"

namespace cxlgraph::gpusim {

struct PointerChaseParams {
  unsigned hops = 512;
  std::uint32_t read_bytes = 128;
  /// Address span the chain wanders over (16 GB block in the paper).
  std::uint64_t span_bytes = 16ull << 30;
  /// Intra-warp synchronization between hops (32 threads each grab 4 B of
  /// the pointer and __syncwarp before the next hop).
  sim::SimTime warp_sync_overhead = util::ps_from_ns(20);
};

/// Result of one chase: mean_us is the average per-hop latency in
/// microseconds; hop_us holds one sample per hop (issue to warp-resume),
/// so a latency report can quote tails (p50/p95/p99 via util::percentile)
/// instead of one average.
struct PointerChaseResult {
  double mean_us = 0.0;
  std::vector<double> hop_us;
};

/// Runs the chase on a fresh chain through `device` behind `link`. The
/// chain registers a listener of its own with `sim`, bound to an object
/// that dies when the call returns; a simulator cannot drop a listener,
/// so `sim` must run no further events afterwards. Build a fresh
/// simulator (and devices) per chase.
PointerChaseResult pointer_chase(sim::Simulator& sim,
                                 device::PcieLink& link,
                                 device::MemoryDevice& device,
                                 const PointerChaseParams& params = {});

}  // namespace cxlgraph::gpusim
