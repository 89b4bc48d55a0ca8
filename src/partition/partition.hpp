#pragma once
/// \file partition.hpp
/// Graph partitioning for sharded multi-GPU scale-out simulation.
///
/// A Partition splits a CsrGraph into per-shard subgraphs. Each shard holds
/// a compact local-ID CSR of the edges assigned to it plus bidirectional
/// global<->local ID maps; every global vertex has exactly one *owning*
/// shard (the one responsible for its traversal state), while vertices that
/// merely appear as endpoints of another shard's edges exist there as
/// ghosts. core::ClusterRuntime replays per-shard access traces against the
/// shard subgraphs and charges inter-shard frontier traffic to the cut the
/// partition induces.
///
/// Three strategies, from naive to placement-aware:
///  * kVertexRange    — contiguous equal-vertex ranges (1D block);
///  * kDegreeBalanced — contiguous ranges cut so each shard stores an
///                      approximately equal share of the edge list;
///  * kHashEdge       — each edge hashed to a shard independently (vertex
///                      ownership hashed too), trading locality for
///                      near-perfect edge balance on skewed graphs.
///
/// With one shard every strategy degenerates to the identity: the single
/// shard's subgraph is byte-identical to the input graph and the ID maps
/// are the identity, which is what lets ClusterRuntime reproduce the
/// single-runtime path bit-for-bit.

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"

namespace cxlgraph::partition {

enum class Strategy {
  kVertexRange,
  kDegreeBalanced,
  kHashEdge,
};

std::string to_string(Strategy strategy);
Strategy strategy_from_name(const std::string& name);
const std::vector<Strategy>& all_strategies();

/// Partitioner-aware reordering: how each shard relabels its *local*
/// subgraph after the cut is fixed. Ownership, the cut, and the exchange
/// traffic are untouched — only where sublists sit inside the shard's
/// local edge list changes, which is exactly the locality lever
/// (alignment boundaries, cache reuse, hot-prefix packing) a per-device
/// layout can pull without re-partitioning.
///  * kNone        — local IDs in ascending global-ID order (identity at
///                   one shard, the bit-identity baseline);
///  * kDegreeSorted — hubs first within each shard: local ID 0 is the
///                   shard's highest-degree vertex, packing its hottest
///                   sublists into a dense prefix.
enum class ShardReorder {
  kNone,
  kDegreeSorted,
};

std::string to_string(ShardReorder reorder);
ShardReorder reorder_from_name(const std::string& name);

/// Sentinel for "this global vertex has no local ID on this shard".
inline constexpr graph::VertexId kNoLocalId =
    std::numeric_limits<graph::VertexId>::max();

/// One shard's slice of the graph: a compact CSR over local vertex IDs.
/// Under ShardReorder::kNone local IDs are assigned in ascending global-ID
/// order over the union of the shard's owned vertices and the endpoints of
/// its edges, so a single-shard partition yields the identity mapping;
/// other reorders relabel afterwards with the ID maps updated to match.
struct ShardGraph {
  graph::CsrGraph graph;
  /// local ID -> global ID; size == graph.num_vertices().
  std::vector<graph::VertexId> local_to_global;
  /// global ID -> local ID for vertices present on this shard.
  std::unordered_map<graph::VertexId, graph::VertexId> global_to_local;
  /// How many of the shard's local vertices it owns (the rest are ghosts).
  std::uint64_t num_owned = 0;

  /// Local ID for `global`, or kNoLocalId when absent from this shard.
  graph::VertexId to_local(graph::VertexId global) const {
    const auto it = global_to_local.find(global);
    return it == global_to_local.end() ? kNoLocalId : it->second;
  }
  graph::VertexId to_global(graph::VertexId local) const {
    return local_to_global[local];
  }
};

/// Partition quality numbers, the knobs a placement study sweeps.
struct CutStats {
  std::uint64_t total_edges = 0;
  /// Directed edges whose endpoints are owned by different shards.
  std::uint64_t cut_edges = 0;
  double cut_fraction = 0.0;
  /// Per-shard-pair cut matrix, row-major [src_owner * num_shards +
  /// dst_owner]: directed edges from a vertex owned by `src_owner` to a
  /// vertex owned by `dst_owner`. Diagonal entries are zero; the grand
  /// total equals cut_edges. Row sums are a shard's egress cut (traffic it
  /// originates), column sums its ingress cut (traffic it absorbs) — the
  /// asymmetry an all-to-all exchange model charges per destination.
  /// make_partition fills both; on a default-constructed CutStats the
  /// matrix is empty and num_shards stays 0, so egress_cut/ingress_cut
  /// return 0 while pair_cut (an unchecked index) must not be called.
  std::uint32_t num_shards = 0;
  std::vector<std::uint64_t> pair_cut_edges;

  std::uint64_t pair_cut(std::uint32_t from, std::uint32_t to) const {
    return pair_cut_edges[static_cast<std::size_t>(from) * num_shards + to];
  }
  std::uint64_t egress_cut(std::uint32_t from) const {
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < num_shards; ++t) total += pair_cut(from, t);
    return total;
  }
  std::uint64_t ingress_cut(std::uint32_t to) const {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < num_shards; ++s) total += pair_cut(s, to);
    return total;
  }
  std::uint64_t min_shard_edges = 0;
  std::uint64_t max_shard_edges = 0;
  /// max_shard_edges / (total_edges / shards); 1.0 is a perfect balance.
  double edge_imbalance = 1.0;
  /// Sum of per-shard local vertices (owned + ghosts) over global vertices;
  /// 1.0 means no replication.
  double vertex_replication = 1.0;

  friend bool operator==(const CutStats&, const CutStats&) = default;
};

struct Partition {
  Strategy strategy = Strategy::kVertexRange;
  std::uint32_t num_shards = 1;
  /// global vertex -> owning shard; size == graph.num_vertices().
  std::vector<std::uint32_t> owner;
  std::vector<ShardGraph> shards;
  CutStats stats;
};

/// The most shards make_partition accepts.
inline constexpr std::uint32_t kMaxShards = 4096;

/// Partitions `graph` into `num_shards` shards. Every edge lands on exactly
/// one shard and shard unions reconstruct the graph. `seed` perturbs the
/// kHashEdge hash only; `reorder` relabels each shard's local subgraph
/// after the cut is fixed (ownership and cut stats are reorder-invariant).
/// Throws std::invalid_argument unless num_shards is in [1, kMaxShards];
/// more shards than vertices is allowed (the extra shards are empty).
/// Deterministic in (graph, strategy, num_shards, seed, reorder).
Partition make_partition(const graph::CsrGraph& graph, Strategy strategy,
                         std::uint32_t num_shards, std::uint64_t seed = 0,
                         ShardReorder reorder = ShardReorder::kNone);

}  // namespace cxlgraph::partition
