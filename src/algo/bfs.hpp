#pragma once
/// \file bfs.hpp
/// Level-synchronous breadth-first search (the paper's primary workload).
///
/// The implementation is a real BFS on the CPU; besides depths and parents
/// it records the frontier at every level, which (a) reproduces the paper's
/// Table 2 and (b) feeds the access-trace builder for the memory-system
/// simulation.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr.hpp"

namespace cxlgraph::algo {

inline constexpr std::uint32_t kUnreachedDepth =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr graph::VertexId kNoParent =
    std::numeric_limits<graph::VertexId>::max();

struct BfsResult {
  std::vector<std::uint32_t> depth;     // kUnreachedDepth if unreachable
  std::vector<graph::VertexId> parent;  // kNoParent if none
  /// frontiers[k] = vertices first visited at depth k (frontiers[0] is the
  /// source). These are the vertices whose edge sublists the GPU reads at
  /// step k.
  std::vector<std::vector<graph::VertexId>> frontiers;

  std::uint64_t reached_vertices() const noexcept {
    std::uint64_t total = 0;
    for (const auto& f : frontiers) total += f.size();
    return total;
  }
};

/// Runs BFS from `source`. Throws if source is out of range.
BfsResult bfs(const graph::CsrGraph& graph, graph::VertexId source);

/// Validates a BFS result against the graph (triangle-inequality-style
/// parent/depth checks). Returns an empty string when consistent. A test
/// oracle: no product calls it.
std::string validate_bfs(const graph::CsrGraph& graph,
                         graph::VertexId source, const BfsResult& result);

/// Picks a deterministic pseudo-random source with nonzero degree, as the
/// GAP benchmark does. Throws if every vertex has degree zero.
graph::VertexId pick_source(const graph::CsrGraph& graph,
                            std::uint64_t seed = 0);

}  // namespace cxlgraph::algo
