#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "graph/io.hpp"
#include "golden_suite.hpp"
#include "mutate.hpp"
#include "util/rng.hpp"

namespace cxlgraph::graph {
namespace {

// ---------------------------------------------------------------- csr ----

TEST(Csr, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Csr, IdIsFreshPerBuildKeptByCopiesAndMovedOut) {
  const CsrGraph a({0, 1, 2}, {1, 0});
  const CsrGraph b({0, 1, 2}, {1, 0});
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(b.id(), 0u);
  EXPECT_NE(a.id(), b.id());  // equal contents, built apart

  EXPECT_EQ(CsrGraph().id(), 0u);
  CsrGraph copy = a;
  EXPECT_EQ(copy.id(), a.id());
  CsrGraph assigned;
  assigned = b;
  EXPECT_EQ(assigned.id(), b.id());

  const CsrGraph moved = std::move(copy);
  EXPECT_EQ(moved.id(), a.id());
  EXPECT_EQ(copy.id(), 0u);  // moved from
  CsrGraph move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.id(), b.id());
  EXPECT_EQ(assigned.id(), 0u);  // moved from
}

TEST(Csr, BasicAccessors) {
  // 0 -> {1, 2}, 1 -> {2}, 2 -> {}
  CsrGraph g({0, 2, 3, 3}, {1, 2, 2});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 0u);
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
  EXPECT_FALSE(g.weighted());
}

TEST(Csr, SublistGeometryUsesEightBytesPerEdge) {
  CsrGraph g({0, 2, 3, 3}, {1, 2, 2});
  EXPECT_EQ(g.sublist_byte_offset(0), 0u);
  EXPECT_EQ(g.sublist_bytes(0), 16u);
  EXPECT_EQ(g.sublist_byte_offset(1), 16u);
  EXPECT_EQ(g.sublist_bytes(1), 8u);
  EXPECT_EQ(g.edge_list_bytes(), 24u);
}

TEST(Csr, ConstructorRejectsBadOffsets) {
  EXPECT_THROW(CsrGraph({1, 2}, {0}), std::invalid_argument);     // front != 0
  EXPECT_THROW(CsrGraph({0, 2}, {0}), std::invalid_argument);     // back != m
  EXPECT_THROW(CsrGraph({0, 2, 1}, {0, 0}), std::invalid_argument);  // dec
}

TEST(Csr, ConstructorRejectsOutOfRangeEdge) {
  EXPECT_THROW(CsrGraph({0, 1}, {5}), std::invalid_argument);
}

TEST(Csr, ConstructorRejectsWeightSizeMismatch) {
  EXPECT_THROW(CsrGraph({0, 1}, {0}, {1, 2}), std::invalid_argument);
}

TEST(Csr, DegreeStatsExcludeZeroDegreeVertices) {
  // Vertex 2 is isolated: Table-1 convention averages over the others.
  CsrGraph g({0, 2, 4, 4}, {1, 1, 0, 0});
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.num_vertices, 3u);
  EXPECT_EQ(s.num_edges, 4u);
  EXPECT_EQ(s.zero_degree_vertices, 1u);
  EXPECT_DOUBLE_EQ(s.avg_degree_nonzero, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_sublist_bytes, 16.0);
  EXPECT_EQ(s.max_degree, 2u);
}

// ------------------------------------------------------------ builder ----

TEST(Builder, BuildsSortedCsr) {
  const CsrGraph g = build_csr_from_pairs(4, {{2, 1}, {0, 3}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 3u);
}

TEST(Builder, SymmetrizeAddsReverseEdges) {
  BuildOptions opts;
  opts.symmetrize = true;
  const CsrGraph g = build_csr_from_pairs(3, {{0, 1}}, opts);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST(Builder, RemovesSelfLoops) {
  BuildOptions opts;
  opts.remove_self_loops = true;
  const CsrGraph g = build_csr_from_pairs(2, {{0, 0}, {0, 1}}, opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, DedupCollapsesParallelEdges) {
  BuildOptions opts;
  opts.dedup = true;
  EdgeList edges = {{0, 1, 5}, {0, 1, 3}, {0, 1, 9}};
  const CsrGraph g = build_csr(2, edges, opts);
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 3u);  // min weight kept
}

TEST(Builder, UnitWeightsStoredAsUnweighted) {
  const CsrGraph g = build_csr_from_pairs(2, {{0, 1}});
  EXPECT_FALSE(g.weighted());
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(build_csr_from_pairs(2, {{0, 5}}), std::invalid_argument);
}

// An edge list naming vertex UINT64_MAX - 1 asks for UINT64_MAX vertices,
// whose UINT64_MAX + 1 row offsets wrap to none.
TEST(Builder, RejectsVertexCountWithNoRoomForOffsets) {
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(build_csr(top, {}), std::invalid_argument);
  std::istringstream is("0 " + std::to_string(top - 1) + "\n");
  EXPECT_THROW(load_edge_list(is), std::invalid_argument);
}

/// The oracle for build_csr: the earlier builder, which symmetrizes the
/// list by appending reverses and sorts every edge by (src, dst, weight)
/// in one global sort. It shares no code with the row-wise builder.
CsrGraph global_sort_reference(std::uint64_t num_vertices, EdgeList edges,
                               const BuildOptions& options) {
  if (options.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  if (options.symmetrize) {
    const std::size_t original = edges.size();
    edges.reserve(original * 2);
    for (std::size_t i = 0; i < original; ++i) {
      const Edge& e = edges[i];
      edges.push_back(Edge{e.dst, e.src, e.weight});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.weight < b.weight;
  });
  if (options.dedup) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
  }
  std::vector<EdgeIndex> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<VertexId> targets(edges.size());
  std::vector<Weight> weights(edges.size());
  bool any_nontrivial_weight = false;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    targets[i] = edges[i].dst;
    weights[i] = edges[i].weight;
    any_nontrivial_weight |= edges[i].weight != 1;
  }
  if (!any_nontrivial_weight) weights.clear();
  return CsrGraph(std::move(offsets), std::move(targets), std::move(weights));
}

/// A list over [0, n) with self-loops, parallel edges of different
/// weights, weights 0, 1 and UINT32_MAX, and (for n > 2) isolated
/// vertices: endpoints come from the lower half of the range only.
EdgeList messy_edges(std::uint64_t n, std::uint64_t seed) {
  if (n == 0) return {};
  util::Xoshiro256 rng(seed);
  const std::uint64_t span = n > 2 ? n / 2 : n;
  const Weight special[] = {0, 1, std::numeric_limits<Weight>::max()};
  EdgeList edges;
  for (std::uint64_t i = 0; i < 4 * n; ++i) {
    Edge e{rng.next_below(span), rng.next_below(span),
           static_cast<Weight>(rng.next_below(1000))};
    if (i % 3 == 0) e.weight = special[rng.next_below(3)];
    if (i % 7 == 0) e.dst = e.src;
    edges.push_back(e);
    if (i % 5 == 0) {
      e.weight = special[rng.next_below(3)];
      edges.push_back(e);
    }
  }
  return edges;
}

TEST(Builder, MatchesGlobalSortReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::uint64_t n : {0u, 1u, 2u, 7u, 1000u}) {
      const EdgeList weighted = messy_edges(n, seed);
      EdgeList unit = weighted;
      for (Edge& e : unit) e.weight = 1;
      for (int bits = 0; bits < 8; ++bits) {
        BuildOptions opts;
        opts.symmetrize = (bits & 1) != 0;
        opts.remove_self_loops = (bits & 2) != 0;
        opts.dedup = (bits & 4) != 0;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", n " +
                     std::to_string(n) + ", options " + std::to_string(bits));
        const EdgeList* const lists[] = {&weighted, &unit};
        for (const EdgeList* edges : lists) {
          const CsrGraph expected = global_sort_reference(n, *edges, opts);
          const CsrGraph got = build_csr(n, *edges, opts);
          EXPECT_EQ(got.offsets(), expected.offsets());
          EXPECT_EQ(got.edges(), expected.edges());
          EXPECT_EQ(got.weights(), expected.weights());
        }
        EXPECT_FALSE(build_csr(n, unit, opts).weighted());
      }
    }
  }
}

// --------------------------------------------------------- generators ----

TEST(Generate, UniformHasRequestedSize) {
  GeneratorOptions opts;
  opts.seed = 1;
  const CsrGraph g = generate_uniform(1 << 12, 16.0, opts);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  // Symmetrized and deduped: close to n * avg_degree directed edges.
  const double expected = (1 << 12) * 16.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              expected * 0.05);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Generate, UniformIsDeterministicInSeed) {
  GeneratorOptions opts;
  opts.seed = 99;
  const CsrGraph a = generate_uniform(1024, 8.0, opts);
  const CsrGraph b = generate_uniform(1024, 8.0, opts);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.offsets(), b.offsets());
}

TEST(Generate, UniformDiffersAcrossSeeds) {
  GeneratorOptions a;
  a.seed = 1;
  GeneratorOptions b;
  b.seed = 2;
  EXPECT_NE(generate_uniform(1024, 8.0, a).edges(),
            generate_uniform(1024, 8.0, b).edges());
}

TEST(Generate, CleanGraphsHaveNoSelfLoopsOrDuplicates) {
  const CsrGraph g = generate_uniform(2048, 12.0, {});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v) << "self loop at " << v;
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]) << "dup/unsorted at " << v;
      }
    }
  }
}

TEST(Generate, CleanGraphsAreSymmetric) {
  const CsrGraph g = generate_uniform(512, 6.0, {});
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u))
          << "missing reverse edge " << v << "->" << u;
    }
  }
}

TEST(Generate, KroneckerIsSkewed) {
  const CsrGraph g = generate_kronecker(12, 16.0, {});
  const DegreeStats s = degree_stats(g);
  // R-MAT leaves many isolated vertices and a heavy tail.
  EXPECT_GT(s.zero_degree_vertices, g.num_vertices() / 10);
  EXPECT_GT(s.max_degree, 8 * static_cast<std::uint64_t>(
                                  s.avg_degree_nonzero));
  EXPECT_TRUE(g.validate().empty());
}

TEST(Generate, KroneckerNonzeroAvgDegreeAboveEdgeFactor) {
  // The paper's kron27 has avg degree 67 with edge factor 16 because the
  // average excludes isolated vertices.
  const CsrGraph g = generate_kronecker(14, 16.0, {});
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(s.avg_degree_nonzero, 32.0);
}

TEST(Generate, PowerLawHasHeavyTail) {
  const CsrGraph g = generate_power_law(1 << 13, 20.0, 2.5, {});
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(s.max_degree, 20 * static_cast<std::uint64_t>(
                                   s.avg_degree_nonzero) / 2);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Generate, PowerLawRejectsBadExponent) {
  EXPECT_THROW(generate_power_law(100, 4.0, 0.0, {}),
               std::invalid_argument);
}

TEST(Generate, WeightsWithinRequestedRange) {
  GeneratorOptions opts;
  opts.max_weight = 63;
  const CsrGraph g = generate_uniform(512, 8.0, opts);
  ASSERT_TRUE(g.weighted());
  for (const Weight w : g.weights()) {
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 63u);
  }
}

TEST(Generate, DeterministicShapes) {
  EXPECT_EQ(make_path(5).num_edges(), 8u);        // 4 undirected edges
  EXPECT_EQ(make_ring(5).num_edges(), 10u);
  EXPECT_EQ(make_star(4).num_edges(), 8u);
  EXPECT_EQ(make_complete(4).num_edges(), 12u);
  EXPECT_EQ(make_grid(2, 3).num_edges(), 14u);    // 7 undirected edges
}

TEST(Generate, StarDegrees) {
  const CsrGraph g = make_star(6);
  EXPECT_EQ(g.degree(0), 6u);
  for (VertexId v = 1; v <= 6; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generate, ParallelSamplingIsBitIdenticalToSerial) {
  // Edge sampling is chunk-seeded (GeneratorOptions::jobs): the parallel
  // fan-out must produce exactly the serial graph, weights included.
  // 2^15 * 8 / 2 edges spans several kGeneratorChunkEdges chunks.
  GeneratorOptions serial;
  serial.seed = 123;
  serial.max_weight = 63;
  serial.jobs = 1;
  GeneratorOptions parallel = serial;
  parallel.jobs = 0;

  {
    const CsrGraph a = generate_uniform(1 << 15, 8.0, serial);
    const CsrGraph b = generate_uniform(1 << 15, 8.0, parallel);
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.edges(), b.edges());
    EXPECT_EQ(a.weights(), b.weights());
  }
  {
    const CsrGraph a = generate_kronecker(14, 8.0, serial);
    const CsrGraph b = generate_kronecker(14, 8.0, parallel);
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.edges(), b.edges());
    EXPECT_EQ(a.weights(), b.weights());
  }
  {
    const CsrGraph a = generate_power_law(1 << 14, 12.0, 2.5, serial);
    const CsrGraph b = generate_power_law(1 << 14, 12.0, 2.5, parallel);
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.edges(), b.edges());
    EXPECT_EQ(a.weights(), b.weights());
  }
}

// ------------------------------------------------------------------ io ----

TEST(Io, BinaryRoundTripUnweighted) {
  const CsrGraph g = generate_uniform(512, 8.0, {});
  std::stringstream buffer;
  save_binary(g, buffer);
  const CsrGraph loaded = load_binary(buffer);
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.edges(), g.edges());
  EXPECT_FALSE(loaded.weighted());
}

TEST(Io, BinaryRoundTripWeighted) {
  GeneratorOptions opts;
  opts.max_weight = 63;
  const CsrGraph g = generate_uniform(256, 6.0, opts);
  std::stringstream buffer;
  save_binary(g, buffer);
  const CsrGraph loaded = load_binary(buffer);
  EXPECT_EQ(loaded.weights(), g.weights());
}

TEST(Io, BinaryRejectsGarbage) {
  std::stringstream buffer("not a graph");
  EXPECT_THROW(load_binary(buffer), std::runtime_error);
}

namespace {

/// A valid serialized graph to corrupt.
std::string serialized_graph() {
  const CsrGraph g = build_csr_from_pairs(4, {{0, 1}, {1, 2}, {3, 0}});
  std::stringstream buffer;
  save_binary(g, buffer);
  return buffer.str();
}

void expect_load_error(const std::string& bytes,
                       const std::string& message_fragment) {
  std::stringstream buffer(bytes);
  try {
    load_binary(buffer);
    FAIL() << "expected runtime_error containing '" << message_fragment
           << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(message_fragment),
              std::string::npos)
        << "got: " << e.what();
  }
}

}  // namespace

TEST(Io, BinaryRejectsBadMagic) {
  std::string bytes = serialized_graph();
  bytes[0] = 'X';
  expect_load_error(bytes, "bad magic");
}

TEST(Io, BinaryRejectsUnsupportedVersion) {
  std::string bytes = serialized_graph();
  bytes[4] = 99;  // version field follows the 4-byte magic
  expect_load_error(bytes, "unsupported version");
}

TEST(Io, BinaryRejectsTruncatedStream) {
  const std::string bytes = serialized_graph();
  // Every strict prefix past the magic must fail cleanly, whether the cut
  // lands in the header or mid-array.
  for (const std::size_t keep :
       {std::size_t{6}, std::size_t{20}, bytes.size() - 1}) {
    expect_load_error(bytes.substr(0, keep), "graph binary:");
  }
}

TEST(Io, BinaryRejectsImplausibleCounts) {
  // A corrupt vertex count must be rejected by the size check before any
  // allocation is attempted.
  std::string bytes = serialized_graph();
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = '\xff';
  expect_load_error(bytes, "graph binary:");
}

TEST(Io, BinaryRejectsCorruptStructure) {
  // Flip an offsets entry so the array decreases: the payload is the right
  // size but structurally garbage.
  std::string bytes = serialized_graph();
  const std::size_t offsets_start = 4 + 4 + 8 + 8 + 1;
  bytes[offsets_start + 8] = '\x7f';  // offsets[1] becomes huge
  expect_load_error(bytes, "corrupt structure");
}

TEST(Io, BinarySeededMutationsThrowOrRoundTrip) {
  // Every mutated file either throws std::runtime_error or loads a graph
  // that saves and reloads to equal bytes.
  GeneratorOptions opts;
  opts.seed = 7;
  std::vector<std::string> seeds = {serialized_graph()};
  for (const std::uint32_t max_weight : {1u, 9u}) {
    opts.max_weight = max_weight;
    std::stringstream buffer;
    save_binary(generate_uniform(32, 4.0, opts), buffer);
    seeds.push_back(buffer.str());
  }
  util::Xoshiro256 rng(2025);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::stringstream in(
        mutation::mutate_some(seeds[trial % seeds.size()], rng));
    std::stringstream saved;
    try {
      save_binary(load_binary(in), saved);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " threw " << e.what();
      continue;
    }
    std::stringstream reloaded(saved.str());
    std::stringstream resaved;
    save_binary(load_binary(reloaded), resaved);
    EXPECT_EQ(resaved.str(), saved.str()) << "trial " << trial;
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Io, EdgeListLoadsEveryEdge) {
  const CsrGraph g = build_csr_from_pairs(4, {{0, 1}, {1, 2}, {3, 0}});
  std::stringstream buffer("0 1\n1 2\n3 0\n");
  const CsrGraph loaded = load_edge_list(buffer);
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_EQ(loaded.edges(), g.edges());
}

TEST(Io, EdgeListSkipsComments) {
  std::stringstream input("# header\n0 1\n# mid\n1 2\n");
  const CsrGraph g = load_edge_list(input);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_vertices(), 3u);
}

TEST(Io, EdgeListParsesWeights) {
  std::stringstream input("0 1 7\n1 0 9\n");
  const CsrGraph g = load_edge_list(input);
  ASSERT_TRUE(g.weighted());
  EXPECT_EQ(g.weights_of(0)[0], 7u);
}

TEST(Io, EdgeListMalformedLineThrows) {
  std::stringstream input("0\n");
  EXPECT_THROW(load_edge_list(input), std::runtime_error);
}

// ----------------------------------------------------------- datasets ----

TEST(Datasets, ThreePaperDatasetsInOrder) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].paper_name, "urand27");
  EXPECT_EQ(specs[1].paper_name, "kron27");
  EXPECT_EQ(specs[2].paper_name, "Friendster");
}

TEST(Datasets, UrandMatchesPaperDegree) {
  const CsrGraph g = make_dataset(DatasetId::kUrand, 13, false);
  const DegreeStats s = degree_stats(g);
  // Table 1: urand avg degree 32.0.
  EXPECT_NEAR(s.avg_degree_nonzero, 32.0, 2.0);
}

TEST(Datasets, FriendsterLikeDegreeNearPaper) {
  const CsrGraph g = make_dataset(DatasetId::kFriendster, 13, false);
  const DegreeStats s = degree_stats(g);
  // Table 1: Friendster avg degree 55.1. Power-law cleanup shifts it some.
  EXPECT_GT(s.avg_degree_nonzero, 25.0);
  EXPECT_LT(s.avg_degree_nonzero, 90.0);
}

TEST(Datasets, WeightedFlagProducesWeights) {
  EXPECT_TRUE(make_dataset(DatasetId::kUrand, 10, true).weighted());
  EXPECT_FALSE(make_dataset(DatasetId::kUrand, 10, false).weighted());
}

TEST(Datasets, ScaleAboveMaxThrowsInsteadOfShiftingPast64Bits) {
  // 1 << 64 is undefined; on x86 it wrapped to a 1-vertex graph (scale
  // 64) and a 2-vertex one (scale 65).
  for (const DatasetSpec& spec : paper_datasets()) {
    for (const unsigned scale : {kMaxScale + 1, kMaxScale + 2}) {
      EXPECT_THROW(make_dataset(spec.id, scale, false), std::invalid_argument)
          << spec.name << " at scale " << scale;
    }
  }
}

// The generated graphs byte for byte, pinned from the global-sort builder:
// an FNV-1a fold of offsets, edges and weights (each length first). Shape
// tests and the report goldens only see generation through what it feeds;
// this names the dataset, scale and weighting that moved.
TEST(Datasets, BytesArePinned) {
  struct Pin {
    DatasetId id;
    unsigned scale;
    bool weighted;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {DatasetId::kUrand, 10, false, 5812692621345197340ULL},
      {DatasetId::kUrand, 10, true, 13358823265826359718ULL},
      {DatasetId::kUrand, 12, false, 12779507869574359832ULL},
      {DatasetId::kUrand, 12, true, 6077864722255787682ULL},
      {DatasetId::kKron, 10, false, 13386251083143315122ULL},
      {DatasetId::kKron, 10, true, 18446490760629978756ULL},
      {DatasetId::kKron, 12, false, 1506354033447144746ULL},
      {DatasetId::kKron, 12, true, 7192360561429113738ULL},
      {DatasetId::kFriendster, 10, false, 17936864462581538428ULL},
      {DatasetId::kFriendster, 10, true, 17170042105300977150ULL},
      {DatasetId::kFriendster, 12, false, 5526144868759206358ULL},
      {DatasetId::kFriendster, 12, true, 6590048493651094678ULL},
  };
  for (const Pin& pin : pins) {
    for (const unsigned jobs : {1u, 4u}) {
      const CsrGraph g =
          make_dataset(pin.id, pin.scale, pin.weighted, /*seed=*/42, jobs);
      EXPECT_EQ(golden::Fnv().mix(g.offsets(), g.edges(), g.weights()).value(),
                pin.digest)
          << paper_datasets()[static_cast<std::size_t>(pin.id)].name
          << " scale " << pin.scale << (pin.weighted ? " weighted" : "")
          << " jobs " << jobs;
    }
  }
}

TEST(Datasets, NameLookup) {
  EXPECT_EQ(dataset_from_name("urand"), DatasetId::kUrand);
  EXPECT_EQ(dataset_from_name("kron27"), DatasetId::kKron);
  EXPECT_EQ(dataset_from_name("Friendster"), DatasetId::kFriendster);
  EXPECT_THROW(dataset_from_name("nope"), std::invalid_argument);
}

// --------------------------------------------------------- edge cases ----

TEST(Csr, SingleVertexNoEdges) {
  CsrGraph g({0, 0}, {});
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_EQ(g.sublist_bytes(0), 0u);
  EXPECT_EQ(g.edge_list_bytes(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Csr, SelfLoopIsAValidEdge) {
  CsrGraph g({0, 1}, {0});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 0u);
  EXPECT_TRUE(g.validate().empty());
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max_degree, 1u);
  EXPECT_DOUBLE_EQ(s.avg_degree_nonzero, 1.0);
}

TEST(Builder, EmptyEdgeListBuildsIsolatedVertices) {
  const CsrGraph g = build_csr(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builder, ZeroVertexGraph) {
  const CsrGraph g = build_csr(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builder, SingleVertexSelfLoopKeptByDefault) {
  const CsrGraph g = build_csr_from_pairs(1, {{0, 0}});
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 0u);
}

TEST(Builder, SymmetrizeDoesNotDoubleSelfLoops) {
  BuildOptions opts;
  opts.symmetrize = true;
  opts.dedup = true;
  const CsrGraph g = build_csr_from_pairs(2, {{0, 0}, {0, 1}}, opts);
  // (0,0) symmetrizes to itself and dedups back to one edge; (0,1) gains
  // its reverse.
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Builder, DuplicateEdgesKeptWithoutDedup) {
  const CsrGraph g = build_csr_from_pairs(2, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 3u);
  for (const VertexId n : g.neighbors(0)) EXPECT_EQ(n, 1u);
}

TEST(Builder, RemoveSelfLoopsOnAllSelfLoopGraph) {
  BuildOptions opts;
  opts.remove_self_loops = true;
  const CsrGraph g =
      build_csr_from_pairs(3, {{0, 0}, {1, 1}, {2, 2}}, opts);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builder, DedupIsStableUnderPermutedInput) {
  BuildOptions opts;
  opts.dedup = true;
  const CsrGraph a =
      build_csr_from_pairs(3, {{0, 1}, {0, 2}, {0, 1}, {2, 1}}, opts);
  const CsrGraph b =
      build_csr_from_pairs(3, {{2, 1}, {0, 1}, {0, 1}, {0, 2}}, opts);
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.edges(), b.edges());
}

}  // namespace
}  // namespace cxlgraph::graph
