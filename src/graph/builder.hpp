#pragma once
/// \file builder.hpp
/// Builds CSR graphs from edge lists with the usual cleanup options.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace cxlgraph::graph {

struct Edge {
  VertexId src;
  VertexId dst;
  Weight weight = 1;

  friend bool operator==(const Edge&, const Edge&) = default;
};

using EdgeList = std::vector<Edge>;

struct BuildOptions {
  /// Add the reverse of every edge (the paper's traversal graphs are
  /// effectively undirected).
  bool symmetrize = false;
  /// Drop (u, u) edges.
  bool remove_self_loops = false;
  /// Collapse parallel edges, keeping the smallest weight.
  bool dedup = false;
};

/// Builds a CSR graph over vertices [0, num_vertices). Edges referencing
/// vertices >= num_vertices, and num_vertices == UINT64_MAX (whose
/// num_vertices + 1 offsets would wrap), throw std::invalid_argument. Every
/// row comes
/// out sorted by (target, weight); all-unit weights are stored unweighted.
///
/// The builder has the GAP suite's shape (Beamer, Asanovic and Patterson,
/// arXiv:1508.03619): one pass counts each kept edge into its source's row
/// (and, when symmetrizing, its reverse into the target's row), a second
/// scatters (target, weight) pairs into the rows, and each row is then
/// sorted by (target, weight) and, when deduplicating, cut to the first
/// entry of each target. That is the array a global sort of the
/// symmetrized list by (source, target, weight) gives: rows are the
/// source ranges in order, (target, weight) is a total order within a
/// row, and equal keys are equal edges, so no sort order is left to
/// choose. The first entry of a target is its smallest weight, which is
/// the one a dedup keeps either way.
CsrGraph build_csr(std::uint64_t num_vertices, EdgeList edges,
                   const BuildOptions& options = {});

/// Convenience for tests: builds from (src, dst) pairs, unweighted.
CsrGraph build_csr_from_pairs(
    std::uint64_t num_vertices,
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    const BuildOptions& options = {});

}  // namespace cxlgraph::graph
