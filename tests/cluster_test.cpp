/// core::ClusterRuntime — sharded scale-out simulation.
///
/// The load-bearing guarantee is that one shard reproduces the
/// single-runtime path bit-for-bit on every backend, so the scale-out axis
/// is a pure extension: any difference between shards=1 and
/// ExternalGraphRuntime::run would poison every speedup the scale-out
/// bench reports.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "graph/generate.hpp"
#include "report_expect.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 7;

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

TEST(ClusterRuntime, SingleShardMatchesSingleRuntimeOnAllBackends) {
  const graph::CsrGraph g = test_graph();
  const core::SystemConfig cfg = core::table3_system();
  int shardable = 0;
  for (const core::Algorithm algorithm : kAllAlgorithms) {
    if (!core::cluster_supports(algorithm)) continue;
    ++shardable;
    for (const core::BackendKind backend :
         {core::BackendKind::kHostDram, core::BackendKind::kHostDramRemote,
          core::BackendKind::kCxl, core::BackendKind::kXlfdd,
          core::BackendKind::kBamNvme, core::BackendKind::kUvm,
          core::BackendKind::kTieredDramCxl}) {
      core::RunRequest req;
      req.algorithm = algorithm;
      req.backend = backend;
      req.source_seed = kSeed;

      core::ExternalGraphRuntime single(cfg);
      const core::RunReport expected = single.run(g, req);

      core::ClusterRuntime cluster(cfg);
      core::ClusterRequest creq;
      creq.run = req;
      creq.num_shards = 1;
      const core::ClusterReport actual = cluster.run(g, creq);

      ASSERT_EQ(actual.shard_reports.size(), 1u);
      EXPECT_EQ(actual.shard_reports.front(), expected);
      EXPECT_EQ(actual.runtime_sec, expected.runtime_sec);
      EXPECT_EQ(actual.compute_sec, expected.runtime_sec);
      EXPECT_EQ(actual.exchange_sec, 0.0);
      EXPECT_EQ(actual.exchange_bytes, 0u);
      EXPECT_EQ(actual.supersteps, expected.steps);
    }
  }
  EXPECT_EQ(shardable, 6);  // every algorithm but bfs-writeback
}

TEST(ClusterRuntime, ShardingConservesTraversalWork) {
  const graph::CsrGraph g = test_graph();
  core::ExternalGraphRuntime single(core::table3_system());
  core::ClusterRuntime cluster(core::table3_system());

  core::RunRequest req;
  req.algorithm = core::Algorithm::kBfs;
  req.backend = core::BackendKind::kHostDram;
  req.source_seed = kSeed;
  const core::RunReport baseline = single.run(g, req);

  for (const partition::Strategy strategy : partition::all_strategies()) {
    for (const std::uint32_t shards : {2u, 4u}) {
      core::ClusterRequest creq;
      creq.run = req;
      creq.num_shards = shards;
      creq.strategy = strategy;
      const core::ClusterReport r = cluster.run(g, creq);
      // Every frontier sublist byte is read on exactly one shard: the
      // cluster-wide E matches the single runtime no matter the cut.
      EXPECT_EQ(r.used_bytes, baseline.used_bytes)
          << partition::to_string(strategy) << " x" << shards;
      EXPECT_EQ(r.supersteps, baseline.steps);
      EXPECT_GT(r.exchange_bytes, 0u);
      EXPECT_GT(r.runtime_sec, 0.0);
      EXPECT_GE(r.shard_compute_imbalance, 1.0);
    }
  }
}

TEST(ClusterRuntime, ParallelShardReplayMatchesSerial) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kCxl;
  creq.run.source_seed = kSeed;
  creq.num_shards = 4;
  creq.strategy = partition::Strategy::kDegreeBalanced;

  core::ClusterRuntime serial(core::table3_system(), /*jobs=*/1);
  core::ClusterRuntime parallel(core::table3_system(), /*jobs=*/4);
  EXPECT_EQ(serial.run(g, creq), parallel.run(g, creq));
}

TEST(ClusterRuntime, FrontierAlgorithmsShardToo) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  for (const core::Algorithm algorithm :
       {core::Algorithm::kSssp, core::Algorithm::kCc,
        core::Algorithm::kBfsDirOpt, core::Algorithm::kSsspDelta}) {
    core::ClusterRequest creq;
    creq.run.algorithm = algorithm;
    creq.run.backend = core::BackendKind::kHostDram;
    creq.run.source_seed = kSeed;
    creq.num_shards = 2;
    const core::ClusterReport r = cluster.run(g, creq);
    EXPECT_GT(r.runtime_sec, 0.0);
    EXPECT_GT(r.used_bytes, 0u);
    EXPECT_EQ(r.shard_reports.size(), 2u);
  }
}

// Same seed + shard count must produce the same cluster timeline bit for
// bit, across repeated runs, fresh runtime instances, and --jobs values —
// the sharded analogue of the golden-trace determinism guarantee.
TEST(ClusterRuntime, MultiShardTimelineIsDeterministic) {
  const graph::CsrGraph g = test_graph();
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kBfsDirOpt,
        core::Algorithm::kSsspDelta}) {
    core::ClusterRequest creq;
    creq.run.algorithm = algorithm;
    creq.run.backend = core::BackendKind::kHostDram;
    creq.run.source_seed = kSeed;
    creq.num_shards = 4;
    creq.strategy = partition::Strategy::kHashEdge;

    core::ClusterRuntime serial(core::table3_system(), /*jobs=*/1);
    core::ClusterRuntime parallel(core::table3_system(), /*jobs=*/4);
    const core::ClusterReport a = serial.run(g, creq);
    const core::ClusterReport b = serial.run(g, creq);
    const core::ClusterReport c = parallel.run(g, creq);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

TEST(ClusterRuntime, RejectsAlgorithmsWithoutSupersteps) {
  const graph::CsrGraph g = test_graph();
  EXPECT_FALSE(core::cluster_supports(core::Algorithm::kBfsWriteback));
  EXPECT_TRUE(core::cluster_supports(core::Algorithm::kBfsDirOpt));
  EXPECT_TRUE(core::cluster_supports(core::Algorithm::kSsspDelta));
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfsWriteback;
  creq.num_shards = 2;
  EXPECT_THROW(cluster.run(g, creq), std::invalid_argument);
}

// The asymmetric exchange model: pair totals account for every byte
// charged, the diagonal stays empty, and the max-ingress composition is
// bounded by the bulk-pipe equivalent on one side and the balanced
// all-to-all on the other.
TEST(ClusterRuntime, AsymmetricExchangeAccountsEveryByte) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kBfsDirOpt,
        core::Algorithm::kSsspDelta, core::Algorithm::kPagerankScan}) {
    for (const partition::Strategy strategy : partition::all_strategies()) {
      core::ClusterRequest creq;
      creq.run.algorithm = algorithm;
      creq.run.backend = core::BackendKind::kHostDram;
      creq.run.source_seed = kSeed;
      creq.num_shards = 4;
      creq.strategy = strategy;
      const core::ClusterReport r = cluster.run(g, creq);
      ASSERT_EQ(r.pair_exchange_bytes.size(), 16u);
      std::uint64_t total = 0;
      for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(r.pair_exchange_bytes[s * 4 + s], 0u);
        for (std::uint32_t t = 0; t < 4; ++t) {
          total += r.pair_exchange_bytes[s * 4 + t];
        }
      }
      EXPECT_EQ(total, r.exchange_bytes)
          << core::to_string(algorithm) << " "
          << partition::to_string(strategy);
      EXPECT_GE(r.exchange_ingress_skew, 1.0);
      EXPECT_LE(r.exchange_ingress_skew, 4.0);
    }
  }
}

// A caller-built partition (the serving layer builds one per shard layout
// and reuses it across profiles) must give exactly the report the
// partition-building overload does.
TEST(ClusterRuntime, PrebuiltPartitionMatchesBuiltInPartition) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  for (const core::Algorithm algorithm : kAllAlgorithms) {
    if (!core::cluster_supports(algorithm)) continue;
    for (const partition::Strategy strategy : partition::all_strategies()) {
      for (const std::uint32_t shards : {2u, 4u}) {
        SCOPED_TRACE(core::to_string(algorithm) + " " +
                     partition::to_string(strategy) + " x" +
                     std::to_string(shards));
        core::ClusterRequest creq;
        creq.run.algorithm = algorithm;
        creq.run.backend = core::BackendKind::kHostDram;
        creq.run.source_seed = kSeed;
        creq.num_shards = shards;
        creq.strategy = strategy;
        const partition::Partition part =
            partition::make_partition(g, strategy, shards);
        EXPECT_EQ(cluster.run(g, part, creq), cluster.run(g, creq));
      }
    }
  }
}

TEST(ClusterRuntime, PrebuiltPartitionMustMatchRequestAndGraph) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.num_shards = 2;
  creq.strategy = partition::Strategy::kDegreeBalanced;
  EXPECT_NO_THROW(cluster.run(
      g, partition::make_partition(g, creq.strategy, 2), creq));

  // Wrong shard count.
  EXPECT_THROW(
      cluster.run(g, partition::make_partition(g, creq.strategy, 4), creq),
      std::invalid_argument);
  // Wrong strategy.
  EXPECT_THROW(cluster.run(g,
                           partition::make_partition(
                               g, partition::Strategy::kVertexRange, 2),
                           creq),
               std::invalid_argument);
  // Built over a graph with a different vertex count.
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  const graph::CsrGraph other = graph::generate_uniform(1 << 9, 8.0, opts);
  EXPECT_THROW(
      cluster.run(g, partition::make_partition(other, creq.strategy, 2),
                  creq),
      std::invalid_argument);
}

// The point of the asymmetric model: partitioners with different cut
// shapes pay different exchange-phase times even for similar totals,
// because the slowest-ingress destination sets the pace.
TEST(ClusterRuntime, PartitionersSeparateInExchangeTime) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kHostDram;
  creq.run.source_seed = kSeed;
  creq.num_shards = 4;

  creq.strategy = partition::Strategy::kDegreeBalanced;
  const core::ClusterReport balanced = cluster.run(g, creq);
  creq.strategy = partition::Strategy::kHashEdge;
  const core::ClusterReport hashed = cluster.run(g, creq);
  EXPECT_NE(balanced.exchange_sec, hashed.exchange_sec);
  EXPECT_NE(balanced.pair_exchange_bytes, hashed.pair_exchange_bytes);
}

TEST(ClusterRuntime, ShardDegreeReorderMovesLayoutNotExchange) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kCxl;
  creq.run.source_seed = kSeed;
  creq.num_shards = 4;
  creq.strategy = partition::Strategy::kDegreeBalanced;
  const core::ClusterReport plain = cluster.run(g, creq);
  creq.reorder = partition::ShardReorder::kDegreeSorted;
  const core::ClusterReport sorted = cluster.run(g, creq);

  // The relabel never touches ownership, so the exchange — messages,
  // bytes, per-pair attribution — and the cut stats are bit-identical;
  // only the per-shard replay (layout-dependent) may move.
  EXPECT_EQ(plain.exchange_bytes, sorted.exchange_bytes);
  EXPECT_EQ(plain.exchange_messages, sorted.exchange_messages);
  EXPECT_EQ(plain.pair_exchange_bytes, sorted.pair_exchange_bytes);
  EXPECT_EQ(plain.cut, sorted.cut);
  EXPECT_EQ(plain.supersteps, sorted.supersteps);
  EXPECT_EQ(plain.used_bytes, sorted.used_bytes);
}

TEST(ClusterRuntime, SuperstepProfileSeamsSumToTotals) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kHostDram;
  creq.run.source_seed = kSeed;
  for (const std::uint32_t shards : {1u, 4u}) {
    creq.num_shards = shards;
    const core::ClusterReport r = cluster.run(g, creq);
    ASSERT_EQ(r.superstep_compute_ps.size(), r.supersteps);
    ASSERT_EQ(r.superstep_fetched_bytes.size(), r.supersteps);
    std::uint64_t bytes = 0;
    for (const std::uint64_t b : r.superstep_fetched_bytes) bytes += b;
    EXPECT_EQ(bytes, r.fetched_bytes);
    util::SimTime compute = 0;
    for (const util::SimTime t : r.superstep_compute_ps) compute += t;
    EXPECT_EQ(util::sec_from_ps(compute), r.compute_sec);
    if (shards == 1) {
      EXPECT_TRUE(r.exchange_phase_ps.empty());
    } else {
      EXPECT_EQ(r.exchange_phase_ps.size() <= r.supersteps, true);
    }
  }
}

TEST(ClusterRuntime, ExchangeGrowsWithShardCount) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kHostDram;
  creq.run.source_seed = kSeed;
  creq.strategy = partition::Strategy::kVertexRange;

  std::uint64_t previous = 0;
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    creq.num_shards = shards;
    const core::ClusterReport r = cluster.run(g, creq);
    // More shards cut more edges: remote discoveries cannot shrink.
    EXPECT_GE(r.exchange_bytes, previous) << shards << " shards";
    previous = r.exchange_bytes;
  }
}

}  // namespace
}  // namespace cxlgraph
