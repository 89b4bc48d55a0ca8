/// Golden-trace regression suite.
///
/// Pins BFS and PageRank-scan behavior on a small generated graph with a
/// fixed seed: access-trace geometry, frontier sizes, and RunReport
/// numbers must be bit-stable across repeated runs, across separate
/// runtime instances, and across serial vs thread-pool sweep execution.
/// This is the guard that keeps the parallel experiment fan-out honest.
#include <gtest/gtest.h>

#include <vector>

#include "algo/bfs.hpp"
#include "algo/dobfs.hpp"
#include "algo/sssp_delta.hpp"
#include "algo/trace.hpp"
#include "core/cluster_runtime.hpp"
#include "core/experiment_runner.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "graph/generate.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 7;

graph::CsrGraph golden_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

graph::CsrGraph golden_weighted_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

TEST(GoldenTrace, GraphShapeIsStable) {
  const graph::CsrGraph g = golden_graph();
  const graph::CsrGraph again = golden_graph();
  EXPECT_EQ(g.num_vertices(), 1u << 10);
  EXPECT_EQ(g.num_edges(), again.num_edges());
  EXPECT_EQ(g.offsets(), again.offsets());
  EXPECT_EQ(g.edges(), again.edges());
}

TEST(GoldenTrace, BfsFrontiersAreStableAcrossRuns) {
  const graph::CsrGraph g = golden_graph();
  const graph::VertexId source = algo::pick_source(g, kSeed);
  EXPECT_EQ(source, algo::pick_source(g, kSeed));

  const algo::BfsResult first = algo::bfs(g, source);
  const algo::BfsResult second = algo::bfs(g, source);
  ASSERT_EQ(first.frontiers.size(), second.frontiers.size());
  for (std::size_t depth = 0; depth < first.frontiers.size(); ++depth) {
    EXPECT_EQ(first.frontiers[depth], second.frontiers[depth])
        << "frontier mismatch at depth " << depth;
  }
  // A uniform graph at this size is one connected blob: a handful of
  // levels, nearly every vertex reached.
  EXPECT_GE(first.frontiers.size(), 3u);
  EXPECT_LE(first.frontiers.size(), 10u);
}

TEST(GoldenTrace, BfsTraceGeometryIsStable) {
  const graph::CsrGraph g = golden_graph();
  core::ExternalGraphRuntime rt(core::table3_system());
  const graph::VertexId source = algo::pick_source(g, kSeed);

  const algo::AccessTrace first =
      rt.make_trace(g, core::Algorithm::kBfs, source);
  const algo::AccessTrace second =
      rt.make_trace(g, core::Algorithm::kBfs, source);

  ASSERT_EQ(first.num_steps(), second.num_steps());
  EXPECT_EQ(first.total_reads, second.total_reads);
  EXPECT_EQ(first.total_sublist_bytes, second.total_sublist_bytes);
  EXPECT_EQ(first.step_ends, second.step_ends);
  EXPECT_EQ(first.read_arena, second.read_arena);
  // E equals the trace's sublist bytes; a trace that suddenly changes
  // length means the traversal or chunking changed.
  EXPECT_GT(first.total_reads, 0u);
  EXPECT_EQ(first.total_sublist_bytes % graph::kBytesPerEdge, 0u);
}

TEST(GoldenTrace, PagerankScanTraceIsStable) {
  const graph::CsrGraph g = golden_graph();
  core::ExternalGraphRuntime rt(core::table3_system());

  const algo::AccessTrace first =
      rt.make_trace(g, core::Algorithm::kPagerankScan, 0);
  const algo::AccessTrace second =
      rt.make_trace(g, core::Algorithm::kPagerankScan, 0);
  EXPECT_EQ(first.num_steps(), second.num_steps());
  EXPECT_EQ(first.total_reads, second.total_reads);
  EXPECT_EQ(first.total_sublist_bytes, second.total_sublist_bytes);
  // One full sequential sweep reads the whole edge list exactly once.
  EXPECT_EQ(first.total_sublist_bytes, g.edge_list_bytes());
}

TEST(GoldenTrace, RunReportsAreBitStableAcrossRuntimeInstances) {
  const graph::CsrGraph g = golden_graph();
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kPagerankScan}) {
    core::RunRequest req;
    req.algorithm = algorithm;
    req.backend = core::BackendKind::kHostDram;
    req.source_seed = kSeed;

    core::ExternalGraphRuntime rt1(core::table3_system());
    core::ExternalGraphRuntime rt2(core::table3_system());
    const core::RunReport same_rt_a = rt1.run(g, req);
    const core::RunReport same_rt_b = rt1.run(g, req);
    const core::RunReport other_rt = rt2.run(g, req);
    // Bit-stable: every field, doubles exactly, not within a tolerance.
    EXPECT_EQ(same_rt_a, same_rt_b);
    EXPECT_EQ(same_rt_a, other_rt);
    EXPECT_GT(same_rt_a.runtime_sec, 0.0);
  }
}

TEST(GoldenTrace, ParallelSweepMatchesSerialSweep) {
  const graph::CsrGraph g = golden_graph();

  // A mixed sweep: two algorithms, two backends, a latency point, and a
  // per-job config override — the shapes the benches actually use.
  std::vector<core::SweepJob> jobs;
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kPagerankScan}) {
    for (const core::BackendKind backend :
         {core::BackendKind::kHostDram, core::BackendKind::kCxl}) {
      core::SweepJob job;
      job.graph = &g;
      job.request.algorithm = algorithm;
      job.request.backend = backend;
      job.request.source_seed = kSeed;
      jobs.push_back(job);
    }
  }
  {
    core::SweepJob job = jobs.front();
    job.request.backend = core::BackendKind::kCxl;
    job.request.cxl_added_latency = util::ps_from_us(2.0);
    core::SystemConfig cfg = core::table4_system();
    cfg.cxl_devices = 2;
    job.config = cfg;
    jobs.push_back(job);
  }

  core::ExperimentRunner serial(core::table4_system(), /*jobs=*/1);
  core::ExperimentRunner parallel(core::table4_system(), /*jobs=*/4);

  const std::vector<core::RunReport> serial_reports = serial.run_all(jobs);
  const std::vector<core::RunReport> parallel_reports =
      parallel.run_all(jobs);
  ASSERT_EQ(serial_reports.size(), jobs.size());
  ASSERT_EQ(parallel_reports.size(), jobs.size());
  EXPECT_EQ(serial_reports, parallel_reports);
  // Insertion order survives the fan-out: report i describes job i.
  EXPECT_EQ(parallel_reports[0].backend, "host-dram");
  EXPECT_EQ(parallel_reports[1].backend, "cxl");
  EXPECT_EQ(parallel_reports.back().backend, "cxl");
}

// Sharded DOBFS golden trace: shard votes sum exactly to the whole-graph
// stats, so the cluster's per-superstep push/pull decisions are
// shard-count invariant and must equal the single-runtime heuristic's
// per-level sequence at shards=1, 2, and 4.
TEST(GoldenTrace, ShardedDobfsDirectionDecisionsArePinned) {
  const graph::CsrGraph g = golden_graph();
  const graph::VertexId source = algo::pick_source(g, kSeed);
  const algo::DobfsResult single = algo::bfs_direction_optimizing(g, source);
  // The hybrid actually kicks in on the golden graph: some pull levels,
  // but not all (the first level is always push).
  ASSERT_GT(single.bottom_up_levels(), 0u);
  ASSERT_LT(single.bottom_up_levels(), single.bottom_up_level.size());

  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfsDirOpt;
  creq.run.backend = core::BackendKind::kHostDram;
  creq.run.source_seed = kSeed;
  creq.strategy = partition::Strategy::kDegreeBalanced;

  std::vector<core::ClusterReport> reports;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    creq.num_shards = shards;
    reports.push_back(cluster.run(g, creq));
  }
  // On the golden graph no level drops empty: supersteps == levels, and
  // the kept-superstep direction sequence is the per-level one.
  ASSERT_EQ(reports[0].supersteps, single.bottom_up_level.size());
  for (const core::ClusterReport& r : reports) {
    ASSERT_EQ(r.superstep_bottom_up.size(), single.bottom_up_level.size())
        << r.num_shards << " shards";
    for (std::size_t k = 0; k < single.bottom_up_level.size(); ++k) {
      EXPECT_EQ(r.superstep_bottom_up[k] != 0,
                static_cast<bool>(single.bottom_up_level[k]))
          << r.num_shards << " shards, superstep " << k;
    }
  }
  // Repeated runs are bit-identical, exchange included.
  creq.num_shards = 2;
  const core::ClusterReport again = cluster.run(g, creq);
  EXPECT_EQ(again.superstep_bottom_up, reports[1].superstep_bottom_up);
  EXPECT_EQ(again.exchange_bytes, reports[1].exchange_bytes);
  EXPECT_EQ(again.pair_exchange_bytes, reports[1].pair_exchange_bytes);
  EXPECT_EQ(again.runtime_sec, reports[1].runtime_sec);
}

// Sharded delta-stepping golden trace: relaxation phases map 1:1 onto
// supersteps at every shard count, carrying their bucket epoch; epoch
// count and the per-superstep bucket keys are pinned against the
// single-runtime algorithm at shards=1, 2, and 4.
TEST(GoldenTrace, ShardedDeltaSteppingBucketEpochsArePinned) {
  const graph::CsrGraph g = golden_weighted_graph();
  const graph::VertexId source = algo::pick_source(g, kSeed);
  const algo::DeltaSteppingResult single =
      algo::sssp_delta_stepping(g, source);
  ASSERT_GT(single.buckets_processed, 1u);
  ASSERT_EQ(single.phase_bucket.size(), single.phases.size());

  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kSsspDelta;
  creq.run.backend = core::BackendKind::kHostDram;
  creq.run.source_seed = kSeed;
  creq.strategy = partition::Strategy::kHashEdge;

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    creq.num_shards = shards;
    const core::ClusterReport r = cluster.run(g, creq);
    EXPECT_EQ(r.bucket_epochs, single.buckets_processed)
        << shards << " shards";
    // On the golden graph no phase drops empty: the kept supersteps carry
    // exactly the algorithm's phase->bucket mapping.
    ASSERT_EQ(r.superstep_bucket.size(), single.phase_bucket.size())
        << shards << " shards";
    EXPECT_EQ(r.superstep_bucket, single.phase_bucket)
        << shards << " shards";
    EXPECT_EQ(r.supersteps, r.superstep_bucket.size());
    // Bucket epochs are barrier-ordered: keys never decrease.
    for (std::size_t p = 1; p < r.superstep_bucket.size(); ++p) {
      EXPECT_GE(r.superstep_bucket[p], r.superstep_bucket[p - 1]);
    }
  }
}

}  // namespace
}  // namespace cxlgraph
