#include "graph/csr.hpp"

#include <atomic>
#include <stdexcept>

namespace cxlgraph::graph {

namespace {

std::uint64_t next_graph_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CsrGraph::CsrGraph(std::vector<EdgeIndex> offsets,
                   std::vector<VertexId> edges, std::vector<Weight> weights)
    : offsets_(std::move(offsets)),
      edges_(std::move(edges)),
      weights_(std::move(weights)),
      id_(next_graph_id()) {
  const std::string problem = validate();
  if (!problem.empty()) {
    throw std::invalid_argument("CsrGraph: " + problem);
  }
}

std::string CsrGraph::validate() const {
  if (offsets_.empty()) {
    return edges_.empty() ? std::string{} : "edges without offsets";
  }
  if (offsets_.front() != 0) return "offsets[0] != 0";
  if (offsets_.back() != edges_.size()) {
    return "offsets.back() != edges.size()";
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      return "offsets decrease at index " + std::to_string(i);
    }
  }
  const std::uint64_t n = num_vertices();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i] >= n) {
      return "edge target " + std::to_string(edges_[i]) +
             " out of range at position " + std::to_string(i);
    }
  }
  if (!weights_.empty() && weights_.size() != edges_.size()) {
    return "weights size mismatch";
  }
  return {};
}

DegreeStats degree_stats(const CsrGraph& graph) {
  DegreeStats s;
  s.num_vertices = graph.num_vertices();
  s.num_edges = graph.num_edges();
  s.edge_list_bytes = graph.edge_list_bytes();
  std::uint64_t nonzero = 0;
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    const std::uint64_t d = graph.degree(v);
    if (d == 0) {
      ++s.zero_degree_vertices;
    } else {
      ++nonzero;
    }
    if (d > s.max_degree) s.max_degree = d;
  }
  if (nonzero > 0) {
    s.avg_degree_nonzero =
        static_cast<double>(s.num_edges) / static_cast<double>(nonzero);
    s.avg_sublist_bytes = s.avg_degree_nonzero * kBytesPerEdge;
  }
  return s;
}

}  // namespace cxlgraph::graph
