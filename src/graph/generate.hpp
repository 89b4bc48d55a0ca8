#pragma once
/// \file generate.hpp
/// Synthetic graph generators.
///
/// The paper evaluates on urand27 / kron27 (GAP benchmark generators, 2^27
/// vertices) and the real-world Friendster graph. At full scale those need
/// tens of GB, so cxlgraph generates structurally equivalent graphs at a
/// configurable scale: a uniform-random (Erdős–Rényi-style) graph, an R-MAT /
/// Kronecker graph with Graph500 parameters, and a Chung–Lu power-law graph
/// standing in for Friendster. Generators are deterministic in the seed.

#include <cstdint>

#include "graph/csr.hpp"

namespace cxlgraph::graph {

struct GeneratorOptions {
  std::uint64_t seed = 42;
  /// Assign uniform random weights in [1, max_weight] (for SSSP). 0 keeps
  /// the graph unweighted.
  std::uint32_t max_weight = 0;
  /// Symmetrize (undirected), dedup, strip self-loops — GAP-style cleanup.
  bool clean = true;
  /// Edge sampling is split into fixed-size chunks, each with its own
  /// seed-derived RNG stream, so the output depends only on `seed` —
  /// never on thread count. 0 fans the chunks across the shared pool,
  /// 1 runs them serially on the calling thread, N > 1 uses a scoped
  /// N-thread pool (bounding the run to N workers).
  unsigned jobs = 0;
};

/// Fixed chunk granularity for parallel edge sampling. Part of the output
/// contract: changing it changes which RNG stream samples which edge.
inline constexpr std::uint64_t kGeneratorChunkEdges = 1ull << 14;

/// Uniform-random graph: `num_vertices * avg_degree / 2` undirected edges
/// with both endpoints chosen uniformly (GAP "urand" analogue).
CsrGraph generate_uniform(std::uint64_t num_vertices, double avg_degree,
                          const GeneratorOptions& options = {});

/// Kronecker / R-MAT graph with Graph500 probabilities (A=0.57, B=0.19,
/// C=0.19). `scale` is log2 of the vertex count; `edge_factor` is the
/// number of undirected edges per vertex (Graph500 uses 16; the paper's
/// kron27 has average *degree* 67 among non-isolated vertices because R-MAT
/// leaves many vertices isolated).
CsrGraph generate_kronecker(unsigned scale, double edge_factor,
                            const GeneratorOptions& options = {});

/// Chung–Lu power-law graph: expected degrees follow a Zipf-like
/// distribution with the given exponent, scaled to hit `avg_degree`.
/// Stands in for the Friendster social network (power-law degrees,
/// avg degree ~55).
CsrGraph generate_power_law(std::uint64_t num_vertices, double avg_degree,
                            double exponent,
                            const GeneratorOptions& options = {});

/// Deterministic shapes for unit tests: test fixtures whose traversals
/// have known answers. No product builds them.
CsrGraph make_path(std::uint64_t n);           // 0-1-2-...-(n-1), undirected
CsrGraph make_ring(std::uint64_t n);           // path + closing edge
CsrGraph make_star(std::uint64_t leaves);      // vertex 0 to all others
CsrGraph make_complete(std::uint64_t n);       // clique
CsrGraph make_grid(std::uint64_t rows, std::uint64_t cols);  // 4-neighbor

}  // namespace cxlgraph::graph
