#pragma once
/// \file csr.hpp
/// Compressed Sparse Row graph representation (paper Section 2.1, Fig. 1).
///
/// The graph is a vertex list (row offsets) plus an edge list (neighbor
/// vertex IDs). Vertex IDs are 8 bytes, matching the paper's datasets
/// (Table 1: "8 bytes per vertex ID"). The contiguous run of a vertex's
/// neighbors in the edge list is its *edge sublist*; external-memory methods
/// fetch sublists, and sublist byte ranges are what the access trace records.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cxlgraph::graph {

using VertexId = std::uint64_t;
using EdgeIndex = std::uint64_t;
using Weight = std::uint32_t;

/// Bytes per vertex ID in the on-device edge list (paper Table 1).
inline constexpr std::uint64_t kBytesPerEdge = 8;

/// Immutable CSR graph. Construct via GraphBuilder or the generators.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of prebuilt arrays. offsets.size() must be
  /// num_vertices + 1, offsets.front() == 0, offsets.back() == edges.size(),
  /// and offsets must be non-decreasing. weights may be empty (unweighted)
  /// or have one entry per edge.
  CsrGraph(std::vector<EdgeIndex> offsets, std::vector<VertexId> edges,
           std::vector<Weight> weights = {});

  std::uint64_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::uint64_t num_edges() const noexcept { return edges_.size(); }
  bool weighted() const noexcept { return !weights_.empty(); }

  std::uint64_t degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {edges_.data() + offsets_[v], degree(v)};
  }

  std::span<const Weight> weights_of(VertexId v) const noexcept {
    return {weights_.data() + offsets_[v], degree(v)};
  }

  /// Byte offset of v's edge sublist within the external-memory edge list.
  std::uint64_t sublist_byte_offset(VertexId v) const noexcept {
    return offsets_[v] * kBytesPerEdge;
  }

  /// Byte length of v's edge sublist.
  std::uint64_t sublist_bytes(VertexId v) const noexcept {
    return degree(v) * kBytesPerEdge;
  }

  /// Total edge-list size in bytes (the data held on external memory).
  std::uint64_t edge_list_bytes() const noexcept {
    return num_edges() * kBytesPerEdge;
  }

  const std::vector<EdgeIndex>& offsets() const noexcept { return offsets_; }
  const std::vector<VertexId>& edges() const noexcept { return edges_; }
  const std::vector<Weight>& weights() const noexcept { return weights_; }

  /// Verifies structural invariants; returns an empty string when valid,
  /// otherwise a description of the first violation found.
  std::string validate() const;

  /// Identity of the contents: non-zero and unique within the process for
  /// every graph built from arrays, kept by copies (their contents are
  /// equal) and by the target of a move. A default-constructed or
  /// moved-from graph reads 0, which names no contents. The graph is
  /// immutable, so equal non-zero ids mean equal contents: caches of
  /// anything derived from a graph key on this.
  std::uint64_t id() const noexcept { return id_.value; }

 private:
  /// A move hands the id to the target and zeroes the source, so the
  /// graph keeps its implicit copy and move operations.
  struct Id {
    std::uint64_t value = 0;

    Id() = default;
    explicit Id(std::uint64_t v) noexcept : value(v) {}
    Id(const Id&) = default;
    Id& operator=(const Id&) = default;
    Id(Id&& other) noexcept : value(std::exchange(other.value, 0)) {}
    Id& operator=(Id&& other) noexcept {
      value = std::exchange(other.value, 0);
      return *this;
    }
  };

  std::vector<EdgeIndex> offsets_;  // size n+1
  std::vector<VertexId> edges_;
  std::vector<Weight> weights_;  // empty or size num_edges()
  Id id_;
};

/// Degree statistics in the form the paper's Table 1 reports.
struct DegreeStats {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t edge_list_bytes = 0;
  std::uint64_t zero_degree_vertices = 0;
  /// Average degree over vertices with degree > 0 (Table 1 convention).
  double avg_degree_nonzero = 0.0;
  /// Average sublist size in bytes over vertices with degree > 0.
  double avg_sublist_bytes = 0.0;
  std::uint64_t max_degree = 0;
};

DegreeStats degree_stats(const CsrGraph& graph);

}  // namespace cxlgraph::graph
