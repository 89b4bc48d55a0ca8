#include "algo/trace.hpp"

#include <algorithm>
#include <utility>

#include "util/radix_sort.hpp"

namespace cxlgraph::algo {

namespace {

/// Exact read-arena size for a frontier schedule: the chunk counts depend
/// only on degrees, so one cheap pass sizes the whole trace.
std::uint64_t total_chunks(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers) {
  std::uint64_t chunks = 0;
  for (const auto& frontier : frontiers) {
    for (const graph::VertexId v : frontier) {
      chunks += AccessTrace::chunks(graph.sublist_bytes(v));
    }
  }
  return chunks;
}

}  // namespace

bool commit_superstep(std::span<AccessTrace> traces) {
  const auto pending = [](const AccessTrace& t) { return t.step_pending(); };
  if (std::none_of(traces.begin(), traces.end(), pending)) return false;
  for (AccessTrace& trace : traces) trace.commit_step(/*keep_if_empty=*/true);
  return true;
}

// A GPU traversal materializes each frontier from a status bitmap, so it
// reads the step's sublists in vertex-ID order (GAP's bitmap-to-queue
// conversion, Beamer, Asanović and Patterson, arXiv:1508.03619). The CPU
// traversals here emit discovery order instead; a radix sort restores ID
// order in linear time, as the bitmap scan does.
const std::vector<graph::VertexId>& sorted_frontier(
    const std::vector<graph::VertexId>& raw, FrontierScratch& scratch) {
  if (std::is_sorted(raw.begin(), raw.end())) return raw;
  scratch.sorted.assign(raw.begin(), raw.end());
  scratch.spare.resize(raw.size());
  if (util::radix_sort(scratch.sorted, scratch.spare).data() !=
      scratch.sorted.data()) {
    std::swap(scratch.sorted, scratch.spare);
  }
  return scratch.sorted;
}

AccessTrace build_trace(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers) {
  AccessTrace trace;
  trace.reserve(frontiers.size(), total_chunks(graph, frontiers));
  FrontierScratch scratch;
  for (const auto& raw_frontier : frontiers) {
    // GPU level-synchronous traversals materialize the frontier by
    // scanning a per-vertex status bitmap, so a step's edge-sublist reads
    // sweep the edge list in ascending vertex-ID order. This ordering is
    // what gives coarse-grained (512 B / 4 kB) cache lines their reuse and
    // keeps the paper's Fig.-3 RAF at ~4 rather than ~15 at 4 kB.
    const auto& frontier = sorted_frontier(raw_frontier, scratch);
    for (const graph::VertexId v : frontier) {
      trace.add_sublist(v, graph.sublist_byte_offset(v),
                        graph.sublist_bytes(v));
    }
    trace.commit_step();
  }
  return trace;
}

AccessTrace build_writeback_trace(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers,
    std::uint32_t property_bytes) {
  AccessTrace trace;
  std::uint64_t writes = 0;
  for (const auto& frontier : frontiers) writes += frontier.size();
  trace.reserve(frontiers.size(), total_chunks(graph, frontiers), writes);
  // Result region starts page-aligned after the edge list.
  const std::uint64_t region =
      (graph.edge_list_bytes() + 4095) / 4096 * 4096;
  FrontierScratch scratch;
  for (const auto& raw_frontier : frontiers) {
    const auto& frontier = sorted_frontier(raw_frontier, scratch);
    for (const graph::VertexId v : frontier) {
      trace.add_sublist(v, graph.sublist_byte_offset(v),
                        graph.sublist_bytes(v));
      trace.add_write(WriteRef{region + v * property_bytes, property_bytes});
      trace.total_write_bytes += property_bytes;
      ++trace.total_writes;
    }
    trace.commit_step();
  }
  return trace;
}

AccessTrace build_trace_with_layout(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers,
    const graph::EdgeListLayout& layout) {
  AccessTrace trace;
  trace.reserve(frontiers.size(), total_chunks(graph, frontiers));
  FrontierScratch scratch;
  for (const auto& raw_frontier : frontiers) {
    const auto& frontier = sorted_frontier(raw_frontier, scratch);
    for (const graph::VertexId v : frontier) {
      trace.add_sublist(v, layout.byte_offset(v), graph.sublist_bytes(v));
    }
    trace.commit_step();
  }
  return trace;
}

AccessTrace build_sequential_trace(const graph::CsrGraph& graph,
                                   unsigned num_iterations) {
  AccessTrace trace;
  std::uint64_t chunks_per_iter = 0;
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    chunks_per_iter += AccessTrace::chunks(graph.sublist_bytes(v));
  }
  trace.reserve(num_iterations, num_iterations * chunks_per_iter);
  for (unsigned iter = 0; iter < num_iterations; ++iter) {
    for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
      trace.add_sublist(v, graph.sublist_byte_offset(v),
                        graph.sublist_bytes(v));
    }
    trace.commit_step();
  }
  return trace;
}

}  // namespace cxlgraph::algo
