#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "core/cluster_runtime.hpp"
#include "graph/generate.hpp"
#include "graph/reorder.hpp"
#include "partition/partition.hpp"

namespace cxlgraph::partition {
namespace {

using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

using GlobalEdge = std::tuple<VertexId, VertexId, Weight>;

/// All directed edges of `g` as (src, dst, weight) triples, sorted.
std::vector<GlobalEdge> global_edges(const CsrGraph& g) {
  std::vector<GlobalEdge> out;
  out.reserve(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto neighbors = g.neighbors(u);
    const auto weights = g.weighted() ? g.weights_of(u)
                                      : std::span<const Weight>{};
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      out.emplace_back(u, neighbors[i],
                       weights.empty() ? Weight{1} : weights[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The union of every shard's edges, mapped back to global IDs.
std::vector<GlobalEdge> union_edges(const Partition& p) {
  std::vector<GlobalEdge> out;
  for (const ShardGraph& shard : p.shards) {
    const CsrGraph& g = shard.graph;
    for (VertexId l = 0; l < g.num_vertices(); ++l) {
      const auto neighbors = g.neighbors(l);
      const auto weights = g.weighted() ? g.weights_of(l)
                                        : std::span<const Weight>{};
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        out.emplace_back(shard.to_global(l),
                         shard.to_global(neighbors[i]),
                         weights.empty() ? Weight{1} : weights[i]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CsrGraph weighted_test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = 11;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 9, 8.0, opts);
}

TEST(Partition, EveryEdgeLandsInExactlyOneShard) {
  const CsrGraph g = weighted_test_graph();
  const auto expected = global_edges(g);
  for (const Strategy strategy : all_strategies()) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 5u, 16u}) {
      const Partition p = make_partition(g, strategy, shards);
      std::uint64_t total = 0;
      for (const ShardGraph& shard : p.shards) {
        total += shard.graph.num_edges();
      }
      EXPECT_EQ(total, g.num_edges())
          << to_string(strategy) << " x" << shards;
      // The union reconstructs the graph as an edge multiset, weights
      // included — nothing lost, nothing duplicated.
      EXPECT_EQ(union_edges(p), expected)
          << to_string(strategy) << " x" << shards;
    }
  }
}

TEST(Partition, IdMapsRoundTrip) {
  const CsrGraph g = weighted_test_graph();
  for (const Strategy strategy : all_strategies()) {
    const Partition p = make_partition(g, strategy, 4);
    std::uint64_t owned_total = 0;
    for (std::uint32_t s = 0; s < p.shards.size(); ++s) {
      const ShardGraph& shard = p.shards[s];
      ASSERT_EQ(shard.local_to_global.size(),
                shard.graph.num_vertices());
      for (VertexId l = 0; l < shard.local_to_global.size(); ++l) {
        EXPECT_EQ(shard.to_local(shard.to_global(l)), l);
      }
      for (const auto& [global, local] : shard.global_to_local) {
        EXPECT_EQ(shard.to_global(local), global);
      }
      owned_total += shard.num_owned;
      // Every owned vertex is present and credited to this shard.
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (p.owner[v] == s) {
          EXPECT_NE(shard.to_local(v), kNoLocalId);
        }
      }
    }
    // Each vertex is owned by exactly one shard.
    EXPECT_EQ(owned_total, g.num_vertices());
    EXPECT_EQ(p.owner.size(), g.num_vertices());
  }
}

TEST(Partition, AbsentVertexMapsToNoLocalId) {
  const CsrGraph g = graph::make_path(8);
  const Partition p = make_partition(g, Strategy::kVertexRange, 4);
  // Vertex 7 lives in the last range; the first shard only sees 0..2
  // (owned 0,1 plus ghost 2).
  EXPECT_EQ(p.shards[0].to_local(7), kNoLocalId);
}

TEST(Partition, SingleShardIsIdentity) {
  const CsrGraph g = weighted_test_graph();
  for (const Strategy strategy : all_strategies()) {
    const Partition p = make_partition(g, strategy, 1);
    ASSERT_EQ(p.shards.size(), 1u);
    const ShardGraph& shard = p.shards[0];
    EXPECT_EQ(shard.graph.offsets(), g.offsets());
    EXPECT_EQ(shard.graph.edges(), g.edges());
    EXPECT_EQ(shard.graph.weights(), g.weights());
    EXPECT_EQ(shard.num_owned, g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(shard.to_local(v), v);
      EXPECT_EQ(shard.to_global(v), v);
    }
    EXPECT_EQ(p.stats.cut_edges, 0u);
    EXPECT_EQ(p.stats.vertex_replication, 1.0);
  }
}

TEST(Partition, EmptyGraph) {
  const CsrGraph g({0}, {});
  for (const Strategy strategy : all_strategies()) {
    const Partition p = make_partition(g, strategy, 3);
    EXPECT_EQ(p.shards.size(), 3u);
    for (const ShardGraph& shard : p.shards) {
      EXPECT_EQ(shard.graph.num_vertices(), 0u);
      EXPECT_EQ(shard.graph.num_edges(), 0u);
      EXPECT_EQ(shard.num_owned, 0u);
    }
    EXPECT_EQ(p.stats.total_edges, 0u);
    EXPECT_EQ(p.stats.cut_fraction, 0.0);
  }
}

TEST(Partition, MoreShardsThanVertices) {
  const CsrGraph g = graph::make_path(3);
  const auto expected = global_edges(g);
  for (const Strategy strategy : all_strategies()) {
    const Partition p = make_partition(g, strategy, 8);
    EXPECT_EQ(p.shards.size(), 8u);
    EXPECT_EQ(union_edges(p), expected) << to_string(strategy);
    std::uint64_t owned_total = 0;
    for (const ShardGraph& shard : p.shards) {
      owned_total += shard.num_owned;
    }
    EXPECT_EQ(owned_total, 3u);
  }
}

TEST(Partition, VertexRangeOwnershipIsContiguous) {
  const CsrGraph g = weighted_test_graph();
  const Partition p = make_partition(g, Strategy::kVertexRange, 5);
  for (std::size_t v = 1; v < p.owner.size(); ++v) {
    EXPECT_GE(p.owner[v], p.owner[v - 1]);
  }
}

TEST(Partition, DegreeBalancedBeatsVertexRangeOnSkew) {
  // A star graph concentrates the whole edge list on vertex 0; the
  // vertex-range partitioner dumps it all on shard 0 while the
  // degree-balanced cut at least spreads the reverse edges.
  const CsrGraph g = graph::make_star(63);
  const Partition range = make_partition(g, Strategy::kVertexRange, 4);
  const Partition balanced =
      make_partition(g, Strategy::kDegreeBalanced, 4);
  EXPECT_LE(balanced.stats.max_shard_edges, range.stats.max_shard_edges);
  const Partition hashed = make_partition(g, Strategy::kHashEdge, 4);
  // Hashing balances edges within a small factor even under skew.
  EXPECT_LT(hashed.stats.edge_imbalance, 2.0);
}

TEST(Partition, RingCutEdgesMatchBoundaryCount) {
  // An 8-ring split into two halves cuts exactly two undirected edges —
  // four directed ones.
  const CsrGraph g = graph::make_ring(8);
  const Partition p = make_partition(g, Strategy::kVertexRange, 2);
  EXPECT_EQ(p.stats.cut_edges, 4u);
}

TEST(Partition, DeterministicAcrossCalls) {
  const CsrGraph g = weighted_test_graph();
  for (const Strategy strategy : all_strategies()) {
    const Partition a = make_partition(g, strategy, 4, /*seed=*/9);
    const Partition b = make_partition(g, strategy, 4, /*seed=*/9);
    EXPECT_EQ(a.owner, b.owner);
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      EXPECT_EQ(a.shards[s].graph.offsets(), b.shards[s].graph.offsets());
      EXPECT_EQ(a.shards[s].graph.edges(), b.shards[s].graph.edges());
      EXPECT_EQ(a.shards[s].local_to_global, b.shards[s].local_to_global);
    }
  }
}

// Property: the per-shard-pair cut matrix is a refinement of the
// aggregate cut stats — per-pair entries recount every directed cut edge
// exactly once (row sums = per-shard egress, column sums = per-shard
// ingress, grand total = cut_edges) and the diagonal stays empty.
TEST(Partition, PairCutMatrixSumsMatchAggregateStats) {
  const CsrGraph g = weighted_test_graph();
  for (const Strategy strategy : all_strategies()) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 5u, 16u}) {
      const Partition p = make_partition(g, strategy, shards, /*seed=*/3);
      const CutStats& stats = p.stats;
      ASSERT_EQ(stats.num_shards, shards);
      ASSERT_EQ(stats.pair_cut_edges.size(),
                static_cast<std::size_t>(shards) * shards);

      // Recount from the ownership assignment, independently.
      std::vector<std::uint64_t> expected(
          static_cast<std::size_t>(shards) * shards, 0);
      for (VertexId u = 0; u < g.num_vertices(); ++u) {
        for (const VertexId v : g.neighbors(u)) {
          if (p.owner[u] != p.owner[v]) {
            ++expected[static_cast<std::size_t>(p.owner[u]) * shards +
                       p.owner[v]];
          }
        }
      }
      EXPECT_EQ(stats.pair_cut_edges, expected)
          << to_string(strategy) << " x" << shards;

      std::uint64_t egress_total = 0;
      std::uint64_t ingress_total = 0;
      std::uint64_t grand_total = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(stats.pair_cut(s, s), 0u);
        egress_total += stats.egress_cut(s);
        ingress_total += stats.ingress_cut(s);
        for (std::uint32_t t = 0; t < shards; ++t) {
          grand_total += stats.pair_cut(s, t);
        }
      }
      EXPECT_EQ(grand_total, stats.cut_edges)
          << to_string(strategy) << " x" << shards;
      EXPECT_EQ(egress_total, stats.cut_edges);
      EXPECT_EQ(ingress_total, stats.cut_edges);
    }
  }
}

// Property: ClusterRuntime's asymmetric exchange neither invents nor
// drops traffic — the per-pair byte matrix it reports sums to the total
// bytes charged, for every algorithm and partitioner.
TEST(Partition, ClusterExchangeBytesEqualPairSums) {
  const CsrGraph g = weighted_test_graph();
  core::ClusterRuntime cluster(core::table3_system());
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kSssp,
        core::Algorithm::kCc, core::Algorithm::kPagerankScan,
        core::Algorithm::kBfsDirOpt, core::Algorithm::kSsspDelta}) {
    for (const Strategy strategy : all_strategies()) {
      core::ClusterRequest creq;
      creq.run.algorithm = algorithm;
      creq.run.backend = core::BackendKind::kHostDram;
      creq.run.source_seed = 11;
      creq.num_shards = 3;
      creq.strategy = strategy;
      const core::ClusterReport r = cluster.run(g, creq);
      ASSERT_EQ(r.pair_exchange_bytes.size(), 9u);
      std::uint64_t total = 0;
      for (std::uint32_t s = 0; s < 3; ++s) {
        EXPECT_EQ(r.pair_exchange_bytes[s * 3 + s], 0u)
            << "self-traffic from shard " << s;
        for (std::uint32_t t = 0; t < 3; ++t) {
          total += r.pair_exchange_bytes[s * 3 + t];
        }
      }
      EXPECT_EQ(total, r.exchange_bytes)
          << core::to_string(algorithm) << " " << to_string(strategy);
      // A cut can only carry traffic if it exists; no cut, no exchange.
      if (r.cut.cut_edges == 0) {
        EXPECT_EQ(r.exchange_bytes, 0u);
      }
    }
  }
}

// Out-of-range shard counts throw before any shard is built: 0, one past
// kMaxShards, and UINT32_MAX, whose num_shards + 1 wraps to 0 in the
// range strategies' 32-bit bound arithmetic.
TEST(Partition, ZeroShardsThrows) {
  const CsrGraph g = graph::make_path(4);
  for (const std::uint32_t shards :
       {0u, kMaxShards + 1, std::numeric_limits<std::uint32_t>::max()}) {
    for (const Strategy strategy : all_strategies()) {
      EXPECT_THROW(make_partition(g, strategy, shards), std::invalid_argument)
          << shards << " " << to_string(strategy);
    }
  }
}

TEST(Partition, StrategyNamesRoundTrip) {
  for (const Strategy s : all_strategies()) {
    EXPECT_EQ(strategy_from_name(to_string(s)), s);
  }
  EXPECT_THROW(strategy_from_name("metis"), std::invalid_argument);
}

TEST(Partition, ReorderNamesRoundTrip) {
  for (const ShardReorder r :
       {ShardReorder::kNone, ShardReorder::kDegreeSorted}) {
    EXPECT_EQ(reorder_from_name(to_string(r)), r);
  }
  EXPECT_THROW(reorder_from_name("hilbert"), std::invalid_argument);
}

TEST(Partition, ShardDegreeReorderPreservesEdgesOwnershipAndCut) {
  const CsrGraph g = weighted_test_graph();
  for (const Strategy strategy : all_strategies()) {
    const Partition plain = make_partition(g, strategy, 4, /*seed=*/3);
    const Partition sorted = make_partition(g, strategy, 4, /*seed=*/3,
                                            ShardReorder::kDegreeSorted);
    // The relabel is local-layout only: same global edge multiset, same
    // ownership, identical cut statistics.
    EXPECT_EQ(union_edges(plain), union_edges(sorted));
    EXPECT_EQ(plain.owner, sorted.owner);
    EXPECT_EQ(plain.stats, sorted.stats);
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(plain.shards[s].num_owned, sorted.shards[s].num_owned);
      EXPECT_EQ(plain.shards[s].graph.num_edges(),
                sorted.shards[s].graph.num_edges());
    }
  }
}

TEST(Partition, ShardDegreeReorderSortsLocalDegreesDescending) {
  const CsrGraph g = weighted_test_graph();
  const Partition p = make_partition(g, Strategy::kDegreeBalanced, 4,
                                     /*seed=*/0,
                                     ShardReorder::kDegreeSorted);
  for (const ShardGraph& shard : p.shards) {
    for (VertexId l = 1; l < shard.graph.num_vertices(); ++l) {
      EXPECT_GE(shard.graph.degree(l - 1), shard.graph.degree(l));
    }
  }
}

TEST(Partition, ShardDegreeReorderIdMapsStayConsistent) {
  const CsrGraph g = weighted_test_graph();
  const Partition p = make_partition(g, Strategy::kHashEdge, 3,
                                     /*seed=*/7,
                                     ShardReorder::kDegreeSorted);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const ShardGraph& shard = p.shards[s];
    for (VertexId l = 0; l < shard.graph.num_vertices(); ++l) {
      EXPECT_EQ(shard.to_local(shard.to_global(l)), l);
    }
    // The shard still stores exactly the same global vertices.
    const Partition plain = make_partition(g, Strategy::kHashEdge, 3, 7);
    std::vector<VertexId> a = shard.local_to_global;
    std::vector<VertexId> b = plain.shards[s].local_to_global;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(Partition, ShardDegreeReorderAtOneShardEqualsWholeGraphDegreeSort) {
  const CsrGraph g = weighted_test_graph();
  const Partition p = make_partition(g, Strategy::kVertexRange, 1,
                                     /*seed=*/0,
                                     ShardReorder::kDegreeSorted);
  // One shard owns everything, so the local relabel is exactly the
  // whole-graph degree-sorted reorder.
  const CsrGraph expected =
      graph::reorder(g, graph::VertexOrder::kDegreeSorted);
  EXPECT_EQ(p.shards[0].graph.offsets(), expected.offsets());
  EXPECT_EQ(p.shards[0].graph.edges(), expected.edges());
}

}  // namespace
}  // namespace cxlgraph::partition
