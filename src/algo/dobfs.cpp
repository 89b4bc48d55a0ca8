#include "algo/dobfs.hpp"

#include <stdexcept>

namespace cxlgraph::algo {

bool DirectionDecider::decide_bottom_up(const DirectionVote& vote) {
  // Heuristic switch (GAP): go bottom-up when the frontier is growing
  // and its out-edges dominate the unexplored edges; return top-down
  // when it thins out.
  const bool growing = vote.frontier_vertices > previous_frontier_size_;
  previous_frontier_size_ = vote.frontier_vertices;
  if (!bottom_up_ && growing &&
      static_cast<double>(vote.frontier_edges) >
          static_cast<double>(total_edges_ - scanned_edges_) /
              params_.alpha) {
    bottom_up_ = true;
  } else if (bottom_up_ &&
             static_cast<double>(vote.frontier_vertices) <
                 static_cast<double>(num_vertices_) / params_.beta) {
    bottom_up_ = false;
  }
  scanned_edges_ += vote.frontier_edges;
  return bottom_up_;
}

DobfsResult bfs_direction_optimizing(const graph::CsrGraph& graph,
                                     graph::VertexId source,
                                     const DirectionOptParams& params) {
  const std::uint64_t n = graph.num_vertices();
  if (source >= n) throw std::out_of_range("dobfs: source out of range");

  DobfsResult result;
  result.bfs.depth.assign(n, kUnreachedDepth);
  result.bfs.parent.assign(n, kNoParent);
  result.bfs.depth[source] = 0;

  std::vector<graph::VertexId> frontier{source};
  DirectionDecider decider(graph.num_edges(), n, params);
  std::uint32_t level = 0;
  bool bottom_up = false;

  while (!frontier.empty()) {
    result.bfs.frontiers.push_back(frontier);

    DirectionVote vote;
    vote.frontier_vertices = frontier.size();
    for (const graph::VertexId u : frontier) {
      vote.frontier_edges += graph.degree(u);
    }
    bottom_up = decider.decide_bottom_up(vote);
    result.bottom_up_level.push_back(bottom_up);

    std::vector<graph::VertexId> next;
    if (!bottom_up) {
      for (const graph::VertexId u : frontier) {
        for (const graph::VertexId v : graph.neighbors(u)) {
          if (result.bfs.depth[v] == kUnreachedDepth) {
            result.bfs.depth[v] = level + 1;
            result.bfs.parent[v] = u;
            next.push_back(v);
          }
        }
      }
    } else {
      // Bottom-up: every unvisited vertex scans its own sublist for a
      // parent in the current frontier (depth == level), aborting at the
      // first hit. Requires a symmetric graph, which the generators
      // produce.
      for (graph::VertexId v = 0; v < n; ++v) {
        if (result.bfs.depth[v] != kUnreachedDepth) continue;
        for (const graph::VertexId u : graph.neighbors(v)) {
          if (result.bfs.depth[u] == level) {
            result.bfs.depth[v] = level + 1;
            result.bfs.parent[v] = u;
            next.push_back(v);
            break;
          }
        }
      }
    }
    frontier = std::move(next);
    ++level;
  }
  return result;
}

AccessTrace build_dobfs_trace(const graph::CsrGraph& graph,
                              const DobfsResult& result) {
  const std::uint64_t n = graph.num_vertices();
  AccessTrace trace;
  // Exact chunk totals for the push levels (degree sums); pull levels
  // depend on each scan's early exit, which only the replay below knows,
  // so they grow the arena incrementally.
  std::uint64_t top_down_chunks = 0;
  for (std::size_t level = 0; level < result.bfs.frontiers.size();
       ++level) {
    if (result.bottom_up_level[level]) continue;
    for (const graph::VertexId v : result.bfs.frontiers[level]) {
      top_down_chunks += AccessTrace::chunks(graph.sublist_bytes(v));
    }
  }
  trace.reserve(result.bfs.frontiers.size(), top_down_chunks);
  FrontierScratch scratch;

  // Track which vertices are still unvisited entering each level by
  // replaying depths.
  for (std::size_t level = 0; level < result.bfs.frontiers.size();
       ++level) {
    if (!result.bottom_up_level[level]) {
      const std::vector<graph::VertexId>& frontier =
          sorted_frontier(result.bfs.frontiers[level], scratch);
      for (const graph::VertexId v : frontier) {
        trace.add_sublist(v, graph.sublist_byte_offset(v),
                          graph.sublist_bytes(v));
      }
    } else {
      // Bottom-up reads: unvisited vertices (depth > level or unreached)
      // scan their sublists until the first parent at `level`. Model the
      // early exit exactly: count bytes up to and including the matching
      // neighbor, rounded up to one 8 B ID.
      for (graph::VertexId v = 0; v < n; ++v) {
        const std::uint32_t d = result.bfs.depth[v];
        const bool unvisited_at_level = d == kUnreachedDepth ||
                                        d > level;
        if (!unvisited_at_level || graph.degree(v) == 0) continue;
        std::uint64_t scanned = 0;
        for (const graph::VertexId u : graph.neighbors(v)) {
          ++scanned;
          if (result.bfs.depth[u] == level) break;
        }
        trace.add_sublist(v, graph.sublist_byte_offset(v),
                          scanned * graph::kBytesPerEdge);
      }
    }
    trace.commit_step();
  }
  return trace;
}

}  // namespace cxlgraph::algo
