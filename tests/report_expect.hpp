#pragma once
/// \file report_expect.hpp
/// Field-for-field gtest comparisons of run and cluster reports, shared by
/// the suites that pin two paths to identical results. Doubles compare
/// exactly: the paths must be bit-identical, not merely close.
#include <gtest/gtest.h>

#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"

namespace cxlgraph {

inline constexpr core::Algorithm kAllAlgorithms[] = {
    core::Algorithm::kBfs,          core::Algorithm::kSssp,
    core::Algorithm::kCc,           core::Algorithm::kPagerankScan,
    core::Algorithm::kBfsDirOpt,    core::Algorithm::kSsspDelta,
    core::Algorithm::kBfsWriteback};

inline void expect_reports_identical(const core::RunReport& a,
                                     const core::RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.access_method, b.access_method);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.runtime_sec, b.runtime_sec);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.raf, b.raf);
  EXPECT_EQ(a.avg_transfer_bytes, b.avg_transfer_bytes);
  EXPECT_EQ(a.used_bytes, b.used_bytes);
  EXPECT_EQ(a.fetched_bytes, b.fetched_bytes);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.observed_read_latency_us, b.observed_read_latency_us);
  EXPECT_EQ(a.avg_outstanding_reads, b.avg_outstanding_reads);
  EXPECT_EQ(a.link_return_busy_sec, b.link_return_busy_sec);
  EXPECT_EQ(a.link_upstream_busy_sec, b.link_upstream_busy_sec);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
  EXPECT_EQ(a.write_transactions, b.write_transactions);
  EXPECT_EQ(a.rmw_reads, b.rmw_reads);
  EXPECT_EQ(a.frontier_vertices, b.frontier_vertices);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
}

inline void expect_cut_stats_identical(const partition::CutStats& a,
                                       const partition::CutStats& b) {
  EXPECT_EQ(a.total_edges, b.total_edges);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.cut_fraction, b.cut_fraction);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.pair_cut_edges, b.pair_cut_edges);
  EXPECT_EQ(a.min_shard_edges, b.min_shard_edges);
  EXPECT_EQ(a.max_shard_edges, b.max_shard_edges);
  EXPECT_EQ(a.edge_imbalance, b.edge_imbalance);
  EXPECT_EQ(a.vertex_replication, b.vertex_replication);
}

inline void expect_cluster_reports_identical(const core::ClusterReport& a,
                                             const core::ClusterReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.access_method, b.access_method);
  EXPECT_EQ(a.partitioner, b.partitioner);
  EXPECT_EQ(a.num_shards, b.num_shards);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.runtime_sec, b.runtime_sec);
  EXPECT_EQ(a.compute_sec, b.compute_sec);
  EXPECT_EQ(a.exchange_sec, b.exchange_sec);
  EXPECT_EQ(a.exchange_bytes, b.exchange_bytes);
  EXPECT_EQ(a.exchange_messages, b.exchange_messages);
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.pair_exchange_bytes, b.pair_exchange_bytes);
  EXPECT_EQ(a.exchange_ingress_skew, b.exchange_ingress_skew);
  EXPECT_EQ(a.superstep_compute_ps, b.superstep_compute_ps);
  EXPECT_EQ(a.exchange_phase_ps, b.exchange_phase_ps);
  EXPECT_EQ(a.superstep_fetched_bytes, b.superstep_fetched_bytes);
  EXPECT_EQ(a.superstep_bottom_up, b.superstep_bottom_up);
  EXPECT_EQ(a.superstep_bucket, b.superstep_bucket);
  EXPECT_EQ(a.bucket_epochs, b.bucket_epochs);
  EXPECT_EQ(a.fetched_bytes, b.fetched_bytes);
  EXPECT_EQ(a.used_bytes, b.used_bytes);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.max_shard_compute_sec, b.max_shard_compute_sec);
  EXPECT_EQ(a.shard_compute_imbalance, b.shard_compute_imbalance);
  expect_cut_stats_identical(a.cut, b.cut);
  ASSERT_EQ(a.shard_reports.size(), b.shard_reports.size());
  for (std::size_t s = 0; s < a.shard_reports.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_reports_identical(a.shard_reports[s], b.shard_reports[s]);
  }
}

}  // namespace cxlgraph
