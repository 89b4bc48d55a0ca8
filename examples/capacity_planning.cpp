/// \file capacity_planning.cpp
/// Domain scenario: sizing an external-memory tier for GPU graph analytics
/// with the paper's analytical model (Sec. 3) before buying hardware.
///
/// Given a candidate device (IOPS, latency) and a link generation, this
/// prints whether the device saturates the link for the workload's measured
/// transfer-size profile, and the predicted runtime for the dataset.
///
///   ./capacity_planning --device-miops=100 --device-latency-us=3
///                       [--gen=4] [--scale=15] [--alignment=32]

#include <algorithm>
#include <iostream>

#include "algo/bfs.hpp"
#include "analysis/model.hpp"
#include "cache/raf.hpp"
#include "core/runtime.hpp"
#include "graph/datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cxlgraph;

  util::CliParser cli;
  cli.add_option("device-miops", "candidate device random-read MIOPS",
                 "100");
  cli.add_option("device-latency-us", "candidate device latency [us]", "3");
  cli.add_option("gen", "PCIe generation of the GPU link (3|4|5)", "4");
  cli.add_option("scale", "log2 of the vertex count", "15");
  cli.add_option("alignment", "access alignment [B]", "32");
  cli.add_option("seed", "random seed", "42");
  if (!cli.parse(argc, argv)) return 0;

  const double miops = cli.get_double("device-miops");
  const double latency_us = cli.get_double("device-latency-us");
  const auto alignment =
      static_cast<std::uint32_t>(cli.get_int("alignment"));
  const auto scale = static_cast<unsigned>(cli.get_int("scale"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const device::PcieGen gen = cli.get_int("gen") == 3
                                  ? device::PcieGen::kGen3
                                  : (cli.get_int("gen") == 5
                                         ? device::PcieGen::kGen5
                                         : device::PcieGen::kGen4);
  const auto link = device::pcie_x16(gen);

  // Measure the workload's transfer profile: run the real BFS and compute
  // the amplified traffic at the requested alignment.
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::kUrand,
                                                scale, /*weighted=*/false,
                                                seed);
  core::ExternalGraphRuntime runtime(core::table3_system());
  const algo::AccessTrace trace = runtime.make_trace(
      g, core::Algorithm::kBfs, algo::pick_source(g, seed));
  cache::RafOptions raf_options;
  raf_options.alignment = alignment;
  raf_options.cache_capacity_bytes = g.edge_list_bytes() / 16;
  const cache::RafResult raf = cache::evaluate_raf(trace, raf_options);
  // Effective transfer size: the coalescer merges aligned reads up to one
  // 128 B GPU cache line, so d sits between the alignment and 128 B,
  // bounded by the workload's average sublist size.
  const double d = std::clamp(trace.avg_sublist_bytes(),
                              static_cast<double>(alignment), 128.0);

  analysis::ThroughputParams candidate;
  candidate.iops = miops * 1e6;
  candidate.latency_sec = latency_us * 1e-6;
  candidate.n_max = link.n_max;
  candidate.bandwidth_mbps = link.bandwidth_mbps;

  const double s = analysis::throughput_slope_iops(candidate);
  const double t_mbps = analysis::throughput_mbps(candidate, d);
  const double required_miops =
      analysis::required_iops(link.bandwidth_mbps, d) / 1e6;
  const double allowance_us = analysis::allowable_latency_sec(
                                  link.bandwidth_mbps, link.n_max, d) *
                              1e6;
  const double predicted_sec = analysis::runtime_sec(
      candidate, static_cast<double>(raf.fetched_bytes), d);

  util::TablePrinter table({"Quantity", "Value"});
  table.add_row({"link bandwidth W", util::fmt(link.bandwidth_mbps, 0) +
                                         " MB/s (N_max " +
                                         std::to_string(link.n_max) + ")"});
  table.add_row({"workload E (sublist bytes)",
                 util::format_bytes(trace.total_sublist_bytes)});
  table.add_row({"amplified D at " + std::to_string(alignment) + " B",
                 util::format_bytes(raf.fetched_bytes) + "  (RAF " +
                     util::fmt(raf.raf(), 2) + ")"});
  table.add_row({"device slope s = min(S, N_max/L)",
                 util::fmt(s / 1e6, 1) + " MIOPS"});
  table.add_row({"achievable throughput T(d)",
                 util::fmt(t_mbps, 0) + " MB/s"});
  table.add_row({"required S to saturate W",
                 util::fmt(required_miops, 1) + " MIOPS"});
  table.add_row({"latency allowance at d",
                 util::fmt(allowance_us, 2) + " us"});
  table.add_row({"predicted BFS runtime",
                 util::fmt(predicted_sec * 1e3, 3) + " ms"});
  table.print(std::cout);

  std::cout << "\nVerdict: the candidate device "
            << (t_mbps >= link.bandwidth_mbps * 0.99
                    ? "SATURATES the link - host-DRAM-class runtime expected."
                    : "does NOT saturate the link - expect a slowdown of ~" +
                          util::fmt(link.bandwidth_mbps / t_mbps, 2) + "x.")
            << "\n";
  return 0;
}
