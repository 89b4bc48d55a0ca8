#pragma once
/// \file sssp.hpp
/// Single-source shortest paths, the paper's second workload.
///
/// The frontier variant mirrors EMOGI/BaM's GPU SSSP: iterative
/// Bellman-Ford where only vertices whose distance improved in the previous
/// iteration relax their outgoing edges. Each iteration is one synchronized
/// step for the access trace. A textbook Dijkstra is provided as the
/// correctness oracle for tests.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace cxlgraph::algo {

using Distance = std::uint64_t;
inline constexpr Distance kInfDistance =
    std::numeric_limits<Distance>::max();

struct SsspResult {
  std::vector<Distance> dist;  // kInfDistance if unreachable
  /// frontiers[k] = vertices whose edges are relaxed in iteration k.
  std::vector<std::vector<graph::VertexId>> frontiers;
  std::uint64_t iterations() const noexcept { return frontiers.size(); }
};

/// Frontier-based Bellman-Ford from `source`. Unweighted graphs are treated
/// as all-ones. Throws if source is out of range.
SsspResult sssp_frontier(const graph::CsrGraph& graph,
                         graph::VertexId source);

/// Dijkstra reference (binary heap); distances only. A test oracle for
/// the frontier and delta-stepping SSSPs: no product calls it.
std::vector<Distance> sssp_dijkstra(const graph::CsrGraph& graph,
                                    graph::VertexId source);

/// Checks that `dist` satisfies shortest-path optimality conditions.
/// Returns an empty string when consistent. A test oracle: no product
/// calls it.
std::string validate_sssp(const graph::CsrGraph& graph,
                          graph::VertexId source,
                          const std::vector<Distance>& dist);

}  // namespace cxlgraph::algo
