#include <gtest/gtest.h>

#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/sssp.hpp"
#include "algo/trace.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"

namespace cxlgraph::algo {
namespace {

using graph::CsrGraph;
using graph::VertexId;

// ---------------------------------------------------------------- bfs ----

TEST(Bfs, PathGraphDepths) {
  const CsrGraph g = graph::make_path(5);
  const BfsResult r = bfs(g, 0);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(r.depth[v], v);
  EXPECT_EQ(r.frontiers.size(), 5u);
}

TEST(Bfs, StarGraphIsTwoLevels) {
  const CsrGraph g = graph::make_star(8);
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.frontiers.size(), 2u);
  EXPECT_EQ(r.frontiers[1].size(), 8u);
  for (VertexId v = 1; v <= 8; ++v) EXPECT_EQ(r.parent[v], 0u);
}

TEST(Bfs, FromLeafOfStar) {
  const CsrGraph g = graph::make_star(8);
  const BfsResult r = bfs(g, 3);
  EXPECT_EQ(r.depth[3], 0u);
  EXPECT_EQ(r.depth[0], 1u);
  EXPECT_EQ(r.depth[7], 2u);
}

TEST(Bfs, DisconnectedVerticesUnreached) {
  // Two components: {0,1} and {2,3}.
  const CsrGraph g = graph::build_csr_from_pairs(
      4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.depth[1], 1u);
  EXPECT_EQ(r.depth[2], kUnreachedDepth);
  EXPECT_EQ(r.parent[2], kNoParent);
}

TEST(Bfs, GridDiagonalDepth) {
  const CsrGraph g = graph::make_grid(4, 4);
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.depth[15], 6u);  // Manhattan distance (3 + 3)
}

TEST(Bfs, ReachedCountMatchesFrontierSum) {
  const CsrGraph g = graph::generate_uniform(4096, 8.0, {});
  const VertexId s = pick_source(g, 3);
  const BfsResult r = bfs(g, s);
  std::uint64_t reached = 0;
  for (const auto d : r.depth) {
    if (d != kUnreachedDepth) ++reached;
  }
  EXPECT_EQ(r.reached_vertices(), reached);
}

TEST(Bfs, ValidatorAcceptsCorrectResult) {
  const CsrGraph g = graph::generate_uniform(2048, 8.0, {});
  const VertexId s = pick_source(g, 1);
  EXPECT_EQ(validate_bfs(g, s, bfs(g, s)), "");
}

TEST(Bfs, ValidatorCatchesTamperedDepth) {
  const CsrGraph g = graph::make_path(6);
  BfsResult r = bfs(g, 0);
  r.depth[5] = 1;  // lie: depth 5 vertex claimed at depth 1
  EXPECT_NE(validate_bfs(g, 0, r), "");
}

TEST(Bfs, OutOfRangeSourceThrows) {
  const CsrGraph g = graph::make_path(4);
  EXPECT_THROW(bfs(g, 99), std::out_of_range);
}

TEST(Bfs, PickSourceReturnsNonIsolatedVertex) {
  // Vertex 0 isolated; edges among 1..3.
  const CsrGraph g = graph::build_csr_from_pairs(
      4, {{1, 2}, {2, 1}, {2, 3}, {3, 2}});
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    EXPECT_GT(g.degree(pick_source(g, seed)), 0u);
  }
}

TEST(Bfs, PickSourceThrowsOnEdgelessGraph) {
  const CsrGraph g({0, 0, 0}, {});
  EXPECT_THROW(pick_source(g, 0), std::invalid_argument);
}

// --------------------------------------------------------------- sssp ----

TEST(Sssp, UnweightedMatchesBfsDepths) {
  const CsrGraph g = graph::generate_uniform(2048, 8.0, {});
  const VertexId s = pick_source(g, 2);
  const BfsResult b = bfs(g, s);
  const SsspResult r = sssp_frontier(g, s);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (b.depth[v] == kUnreachedDepth) {
      EXPECT_EQ(r.dist[v], kInfDistance);
    } else {
      EXPECT_EQ(r.dist[v], b.depth[v]);
    }
  }
}

TEST(Sssp, FrontierMatchesDijkstraOnWeightedGraph) {
  graph::GeneratorOptions opts;
  opts.max_weight = 63;
  const CsrGraph g = graph::generate_uniform(2048, 8.0, opts);
  const VertexId s = pick_source(g, 4);
  EXPECT_EQ(sssp_frontier(g, s).dist, sssp_dijkstra(g, s));
}

TEST(Sssp, HandWorkedExample) {
  // 0 -(1)-> 1 -(1)-> 2, plus a direct heavy edge 0 -(5)-> 2.
  graph::EdgeList edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 5}};
  const CsrGraph g = graph::build_csr(3, edges);
  const SsspResult r = sssp_frontier(g, 0);
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.dist[1], 1u);
  EXPECT_EQ(r.dist[2], 2u);  // via vertex 1, not the direct weight-5 edge
}

TEST(Sssp, ValidatorAcceptsAndRejects) {
  graph::GeneratorOptions opts;
  opts.max_weight = 15;
  const CsrGraph g = graph::generate_uniform(512, 6.0, opts);
  const VertexId s = pick_source(g, 5);
  std::vector<Distance> dist = sssp_dijkstra(g, s);
  EXPECT_EQ(validate_sssp(g, s, dist), "");
  // Inflate one reachable non-source distance: now some edge is relaxable.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != s && dist[v] != kInfDistance && g.degree(v) > 0) {
      dist[v] += 1000;
      break;
    }
  }
  EXPECT_NE(validate_sssp(g, s, dist), "");
}

TEST(Sssp, IterationsBoundedByVertices) {
  const CsrGraph g = graph::generate_uniform(1024, 6.0, {});
  const SsspResult r = sssp_frontier(g, pick_source(g, 6));
  EXPECT_LE(r.iterations(), g.num_vertices());
  EXPECT_GE(r.iterations(), 1u);
}

TEST(Sssp, SsspNeedsMoreFrontierWorkThanBfsOnWeightedGraphs) {
  graph::GeneratorOptions opts;
  opts.max_weight = 63;
  const CsrGraph g = graph::generate_uniform(4096, 12.0, opts);
  const VertexId s = pick_source(g, 7);
  const BfsResult b = bfs(g, s);
  const SsspResult r = sssp_frontier(g, s);
  std::uint64_t sssp_work = 0;
  for (const auto& f : r.frontiers) sssp_work += f.size();
  // Re-relaxations make SSSP touch at least as many frontier entries.
  EXPECT_GE(sssp_work, b.reached_vertices());
}

// ----------------------------------------------------------------- cc ----

TEST(Cc, TwoComponents) {
  const CsrGraph g = graph::build_csr_from_pairs(
      5, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  const CcResult r = connected_components(g);
  // Vertex 4 is isolated -> own component.
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.label[0], r.label[1]);
  EXPECT_EQ(r.label[2], r.label[3]);
  EXPECT_NE(r.label[0], r.label[2]);
}

TEST(Cc, LabelsAreComponentMinima) {
  const CsrGraph g = graph::make_ring(7);
  const CcResult r = connected_components(g);
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(r.label[v], 0u);
}

TEST(Cc, AgreesWithBfsReachability) {
  const CsrGraph g = graph::generate_uniform(1024, 2.0, {});
  const CcResult r = connected_components(g);
  const VertexId s = pick_source(g, 8);
  const BfsResult b = bfs(g, s);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (b.depth[v] != kUnreachedDepth) {
      EXPECT_EQ(r.label[v], r.label[s]);
    }
  }
}

// -------------------------------------------------------------- trace ----

TEST(Trace, TotalsMatchFrontierSublists) {
  const CsrGraph g = graph::generate_uniform(2048, 8.0, {});
  const VertexId s = pick_source(g, 9);
  const BfsResult b = bfs(g, s);
  const AccessTrace t = build_trace(g, b.frontiers);

  std::uint64_t expected_bytes = 0;
  std::uint64_t expected_reads = 0;
  for (const auto& frontier : b.frontiers) {
    for (const VertexId v : frontier) {
      if (g.degree(v) == 0) continue;
      expected_bytes += g.sublist_bytes(v);
      ++expected_reads;
    }
  }
  EXPECT_EQ(t.total_sublist_bytes, expected_bytes);
  EXPECT_EQ(t.total_reads, expected_reads);
}

TEST(Trace, BfsTraceCoversEveryEdgeOfReachedVertices) {
  // In a connected graph, BFS scans every vertex's sublist exactly once, so
  // E equals the edge-list size.
  const CsrGraph g = graph::make_complete(12);
  const AccessTrace t = build_trace(g, bfs(g, 0).frontiers);
  EXPECT_EQ(t.total_sublist_bytes, g.edge_list_bytes());
}

TEST(Trace, SkipsZeroDegreeVertices) {
  const CsrGraph g = graph::build_csr_from_pairs(3, {{0, 1}, {1, 0}});
  std::vector<std::vector<VertexId>> frontiers = {{0, 2}};  // 2 is isolated
  const AccessTrace t = build_trace(g, frontiers);
  EXPECT_EQ(t.total_reads, 1u);
}

TEST(Trace, OffsetsAreSublistByteOffsets) {
  const CsrGraph g = graph::make_star(4);
  const AccessTrace t = build_trace(g, {{0}});
  ASSERT_EQ(t.num_steps(), 1u);
  const auto reads = t.step_reads(0);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].byte_offset, g.sublist_byte_offset(0));
  EXPECT_EQ(reads[0].byte_len, g.sublist_bytes(0));
}

TEST(Trace, SequentialTraceCoversWholeEdgeList) {
  const CsrGraph g = graph::generate_uniform(512, 8.0, {});
  const AccessTrace t = build_sequential_trace(g, 2);
  EXPECT_EQ(t.total_sublist_bytes, 2 * g.edge_list_bytes());
  EXPECT_EQ(t.num_steps(), 2u);
}

TEST(Trace, AvgSublistBytesIsConsistent) {
  const CsrGraph g = graph::generate_uniform(1024, 8.0, {});
  const AccessTrace t = build_sequential_trace(g, 1);
  EXPECT_NEAR(t.avg_sublist_bytes(),
              static_cast<double>(t.total_sublist_bytes) /
                  static_cast<double>(t.total_reads),
              1e-9);
}

// Parameterized: BFS + SSSP correctness across dataset families.
class AlgoOnDataset
    : public ::testing::TestWithParam<graph::DatasetId> {};

TEST_P(AlgoOnDataset, BfsValidatesAndSsspMatchesDijkstra) {
  const CsrGraph g = graph::make_dataset(GetParam(), 11, /*weighted=*/true,
                                         7);
  const VertexId s = pick_source(g, 11);
  EXPECT_EQ(validate_bfs(g, s, bfs(g, s)), "");
  EXPECT_EQ(sssp_frontier(g, s).dist, sssp_dijkstra(g, s));
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, AlgoOnDataset,
                         ::testing::Values(graph::DatasetId::kUrand,
                                           graph::DatasetId::kKron,
                                           graph::DatasetId::kFriendster));

}  // namespace
}  // namespace cxlgraph::algo
