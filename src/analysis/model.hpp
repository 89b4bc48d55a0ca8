#pragma once
/// \file model.hpp
/// The paper's analytical performance model (Section 3).
///
///   t = D / T                                   (Eq. 1)
///   T = min(S·d, N_max·d/L, W)                  (Eq. 2)
///   N·d = T·L        (Little's law)             (Eq. 3)
///   s = min(S, N_max/L)                         (Eq. 5, throughput slope)
///
/// Units follow the paper: S in IOPS, d in bytes, L in seconds, W and T in
/// MB/s (decimal), D in bytes, t in seconds.

#include <cstdint>

namespace cxlgraph::analysis {

struct ThroughputParams {
  double iops = 100.0e6;           // S
  double latency_sec = 16.0e-6;    // L
  std::uint32_t n_max = 768;       // PCIe outstanding-read limit
  double bandwidth_mbps = 24'000;  // W (effective)
  /// True for memory (load/store) access where the N_max term applies;
  /// false for storage access, where queue depth replaces it (Sec. 3.2).
  bool memory_semantics = true;
};

/// T(d) in MB/s (Eq. 2).
double throughput_mbps(const ThroughputParams& p, double transfer_bytes);

/// Throughput slope s = min(S, N_max/L) in IOPS (Eq. 5).
double throughput_slope_iops(const ThroughputParams& p);

/// The smallest transfer size that saturates the link: d_opt with
/// s·d_opt = W (Sec. 3.3.2). A test oracle: no product calls it.
double optimal_transfer_bytes(const ThroughputParams& p);

/// t = D/T in seconds (Eq. 1). D in bytes.
double runtime_sec(const ThroughputParams& p, double total_bytes,
                   double transfer_bytes);

/// Outstanding requests N = T·L/d implied by Little's law (Eq. 3). A test
/// oracle: no product calls it.
double littles_law_outstanding(double throughput_mbps, double latency_sec,
                               double transfer_bytes);

/// Minimum IOPS so that S·d >= W (the paper's Eq. 6 left branch).
double required_iops(double bandwidth_mbps, double transfer_bytes);

/// Maximum latency so that (N_max/L)·d >= W (Eq. 6 right branch) — the
/// paper's headline "a few microseconds" number. Returns seconds.
double allowable_latency_sec(double bandwidth_mbps,
                             std::uint32_t n_max, double transfer_bytes);

/// EMOGI's average transfer size from the reported 32/64/96/128 B
/// distribution 20/20/20/40 % (Sec. 3.3.1): 89.6 B.
double emogi_average_transfer_bytes();

}  // namespace cxlgraph::analysis
