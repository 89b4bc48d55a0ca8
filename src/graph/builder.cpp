#include "graph/builder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cxlgraph::graph {

namespace {

/// One entry of a vertex's row while the rows are sorted.
struct RowEntry {
  VertexId dst;
  Weight weight;
};

}  // namespace

CsrGraph build_csr(std::uint64_t num_vertices, EdgeList edges,
                   const BuildOptions& options) {
  // num_vertices + 1 offsets must not wrap to none.
  if (num_vertices == std::numeric_limits<std::uint64_t>::max()) {
    throw std::invalid_argument("vertex count too large for row offsets");
  }
  const auto dropped = [&options](const Edge& e) {
    return options.remove_self_loops && e.src == e.dst;
  };

  // Count each kept edge into its row (and its reverse into the other
  // endpoint's row), then turn the counts into row offsets.
  std::vector<EdgeIndex> offsets(num_vertices + 1, 0);
  for (const Edge& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      throw std::invalid_argument("edge endpoint out of range");
    }
    if (dropped(e)) continue;
    ++offsets[e.src + 1];
    if (options.symmetrize) ++offsets[e.dst + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  // Scatter (dst, weight) into the rows; then neither the input nor the
  // fill cursors are needed.
  std::vector<RowEntry> rows(offsets.back());
  std::vector<EdgeIndex> fill(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    if (dropped(e)) continue;
    rows[fill[e.src]++] = RowEntry{e.dst, e.weight};
    if (options.symmetrize) rows[fill[e.dst]++] = RowEntry{e.src, e.weight};
  }
  EdgeList().swap(edges);
  std::vector<EdgeIndex>().swap(fill);

  // Sort each row by (dst, weight) and copy it out; a dedup keeps the
  // first entry of each dst, its smallest weight. Reserved, not sized:
  // the room that a dedup leaves unused is never touched.
  std::vector<VertexId> targets;
  std::vector<Weight> weights;
  targets.reserve(rows.size());
  weights.reserve(rows.size());
  bool any_nontrivial_weight = false;
  EdgeIndex row_begin = 0;
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    RowEntry* const first = rows.data() + row_begin;
    RowEntry* last = rows.data() + offsets[v + 1];
    std::sort(first, last, [](const RowEntry& a, const RowEntry& b) {
      return a.dst != b.dst ? a.dst < b.dst : a.weight < b.weight;
    });
    if (options.dedup) {
      last = std::unique(first, last,
                         [](const RowEntry& a, const RowEntry& b) {
                           return a.dst == b.dst;
                         });
    }
    for (const RowEntry* it = first; it != last; ++it) {
      targets.push_back(it->dst);
      weights.push_back(it->weight);
      any_nontrivial_weight |= it->weight != 1;
    }
    row_begin = offsets[v + 1];
    offsets[v + 1] = targets.size();
  }

  if (!any_nontrivial_weight) std::vector<Weight>().swap(weights);
  return CsrGraph(std::move(offsets), std::move(targets), std::move(weights));
}

CsrGraph build_csr_from_pairs(
    std::uint64_t num_vertices,
    const std::vector<std::pair<VertexId, VertexId>>& pairs,
    const BuildOptions& options) {
  EdgeList edges;
  edges.reserve(pairs.size());
  for (const auto& [src, dst] : pairs) edges.push_back(Edge{src, dst, 1});
  return build_csr(num_vertices, std::move(edges), options);
}

}  // namespace cxlgraph::graph
