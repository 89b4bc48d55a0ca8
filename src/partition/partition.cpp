#include "partition/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/reorder.hpp"
#include "util/rng.hpp"

namespace cxlgraph::partition {

namespace {

using graph::EdgeIndex;
using graph::VertexId;

/// Stateless per-edge hash for kHashEdge: mixes the seed with both
/// endpoints so parallel edges colocate but each distinct edge lands
/// independently.
std::uint32_t hash_edge_to_shard(std::uint64_t seed, VertexId src,
                                 VertexId dst, std::uint32_t num_shards) {
  util::SplitMix64 sm(seed ^ (src * 0x9e3779b97f4a7c15ULL) ^
                      (dst * 0xbf58476d1ce4e5b9ULL));
  return static_cast<std::uint32_t>(sm.next() % num_shards);
}

std::uint32_t hash_vertex_to_shard(std::uint64_t seed, VertexId v,
                                   std::uint32_t num_shards) {
  util::SplitMix64 sm(seed ^ (v * 0x94d049bb133111ebULL));
  return static_cast<std::uint32_t>(sm.next() % num_shards);
}

/// Contiguous ownership: shard s owns [bounds[s], bounds[s+1]).
std::vector<std::uint32_t> owners_from_bounds(
    const std::vector<VertexId>& bounds) {
  const VertexId n = bounds.back();
  std::vector<std::uint32_t> owner(n);
  for (std::uint32_t s = 0; s + 1 < bounds.size(); ++s) {
    for (VertexId v = bounds[s]; v < bounds[s + 1]; ++v) owner[v] = s;
  }
  return owner;
}

std::vector<std::uint32_t> assign_owners(const graph::CsrGraph& g,
                                         Strategy strategy,
                                         std::uint32_t num_shards,
                                         std::uint64_t seed) {
  const std::uint64_t n = g.num_vertices();
  switch (strategy) {
    case Strategy::kVertexRange: {
      // Equal vertex counts; the first n % shards ranges get one extra.
      std::vector<VertexId> bounds(num_shards + 1, 0);
      const std::uint64_t base = n / num_shards;
      const std::uint64_t extra = n % num_shards;
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        bounds[s + 1] = bounds[s] + base + (s < extra ? 1 : 0);
      }
      return owners_from_bounds(bounds);
    }
    case Strategy::kDegreeBalanced: {
      // Contiguous ranges cut where the cumulative degree (the offsets
      // array itself) crosses each shard's equal share of the edge list.
      const std::uint64_t m = g.num_edges();
      std::vector<VertexId> bounds(num_shards + 1, 0);
      bounds[num_shards] = n;
      for (std::uint32_t s = 1; s < num_shards; ++s) {
        const std::uint64_t target = m * s / num_shards;
        const auto& offsets = g.offsets();
        const auto it = std::lower_bound(offsets.begin(), offsets.end(),
                                         static_cast<EdgeIndex>(target));
        bounds[s] = std::min<VertexId>(
            static_cast<VertexId>(it - offsets.begin()), n);
      }
      // Splitting on raw offsets can produce out-of-order cuts on graphs
      // with huge hubs; clamp to keep ranges monotone.
      for (std::uint32_t s = 1; s <= num_shards; ++s) {
        bounds[s] = std::max(bounds[s], bounds[s - 1]);
      }
      return owners_from_bounds(bounds);
    }
    case Strategy::kHashEdge: {
      std::vector<std::uint32_t> owner(n);
      for (VertexId v = 0; v < n; ++v) {
        owner[v] = hash_vertex_to_shard(seed, v, num_shards);
      }
      return owner;
    }
  }
  throw std::invalid_argument("unknown partition strategy");
}

/// Applies `reorder` to one built shard: relabels the local CSR and
/// remaps both ID maps so to_local/to_global stay consistent. Ownership
/// and num_owned are untouched — reordering is local-layout only.
void reorder_shard(ShardGraph& shard, ShardReorder reorder) {
  if (reorder == ShardReorder::kNone) return;
  const std::vector<VertexId> perm = graph::make_permutation(
      shard.graph, graph::VertexOrder::kDegreeSorted);
  shard.graph = graph::apply_permutation(shard.graph, perm);
  std::vector<VertexId> local_to_global(shard.local_to_global.size());
  for (VertexId l = 0; l < shard.local_to_global.size(); ++l) {
    local_to_global[perm[l]] = shard.local_to_global[l];
  }
  shard.local_to_global = std::move(local_to_global);
  for (auto& [global, local] : shard.global_to_local) {
    local = perm[local];
  }
}

/// Shard index for the directed edge (src, edge-list position e).
std::uint32_t edge_shard(Strategy strategy,
                         const std::vector<std::uint32_t>& owner,
                         std::uint64_t seed, std::uint32_t num_shards,
                         VertexId src, VertexId dst) {
  if (strategy == Strategy::kHashEdge) {
    return hash_edge_to_shard(seed, src, dst, num_shards);
  }
  return owner[src];
}

}  // namespace

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kVertexRange:
      return "vertex-range";
    case Strategy::kDegreeBalanced:
      return "degree-balanced";
    case Strategy::kHashEdge:
      return "hash-edge";
  }
  return "unknown";
}

Strategy strategy_from_name(const std::string& name) {
  for (const Strategy s : all_strategies()) {
    if (to_string(s) == name) return s;
  }
  throw std::invalid_argument("unknown partitioner: " + name);
}

const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> strategies = {
      Strategy::kVertexRange, Strategy::kDegreeBalanced,
      Strategy::kHashEdge};
  return strategies;
}

std::string to_string(ShardReorder reorder) {
  switch (reorder) {
    case ShardReorder::kNone:
      return "none";
    case ShardReorder::kDegreeSorted:
      return "shard-degree";
  }
  return "unknown";
}

ShardReorder reorder_from_name(const std::string& name) {
  for (const ShardReorder r :
       {ShardReorder::kNone, ShardReorder::kDegreeSorted}) {
    if (to_string(r) == name) return r;
  }
  throw std::invalid_argument("unknown shard reorder: " + name);
}

Partition make_partition(const graph::CsrGraph& g, Strategy strategy,
                         std::uint32_t num_shards, std::uint64_t seed,
                         ShardReorder reorder) {
  if (num_shards == 0 || num_shards > kMaxShards) {
    throw std::invalid_argument("make_partition: num_shards must be in [1, " +
                                std::to_string(kMaxShards) + "] (got " +
                                std::to_string(num_shards) + ")");
  }
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();

  Partition p;
  p.strategy = strategy;
  p.num_shards = num_shards;
  p.owner = assign_owners(g, strategy, num_shards, seed);
  p.shards.resize(num_shards);

  // One pass computing each directed edge's shard; reused below so the
  // hash is evaluated once per edge.
  std::vector<std::uint32_t> shard_of_edge(m);
  for (VertexId u = 0; u < n; ++u) {
    const EdgeIndex begin = g.offsets()[u];
    const auto neighbors = g.neighbors(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      shard_of_edge[begin + i] =
          edge_shard(strategy, p.owner, seed, num_shards, u, neighbors[i]);
    }
  }

  // Per-shard membership: owned vertices plus endpoints of local edges,
  // gathered as candidate lists in O(n + m) total (no O(shards x n)
  // matrix), then sorted and deduplicated. Ascending global order assigns
  // local IDs, so a single shard gets the identity mapping.
  std::vector<std::vector<VertexId>> members(num_shards);
  std::vector<std::uint64_t> shard_edges(num_shards, 0);
  for (VertexId v = 0; v < n; ++v) members[p.owner[v]].push_back(v);
  for (VertexId u = 0; u < n; ++u) {
    const EdgeIndex begin = g.offsets()[u];
    const auto neighbors = g.neighbors(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const std::uint32_t s = shard_of_edge[begin + i];
      members[s].push_back(u);
      members[s].push_back(neighbors[i]);
      ++shard_edges[s];
    }
  }

  std::uint64_t total_local_vertices = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    ShardGraph& shard = p.shards[s];
    std::sort(members[s].begin(), members[s].end());
    members[s].erase(std::unique(members[s].begin(), members[s].end()),
                     members[s].end());
    shard.local_to_global = std::move(members[s]);
    shard.global_to_local.reserve(shard.local_to_global.size());
    for (VertexId l = 0; l < shard.local_to_global.size(); ++l) {
      const VertexId v = shard.local_to_global[l];
      shard.global_to_local.emplace(v, l);
      if (p.owner[v] == s) ++shard.num_owned;
    }
    total_local_vertices += shard.local_to_global.size();

    std::vector<EdgeIndex> offsets;
    offsets.reserve(shard.local_to_global.size() + 1);
    offsets.push_back(0);
    std::vector<VertexId> edges;
    edges.reserve(shard_edges[s]);
    std::vector<graph::Weight> weights;
    if (g.weighted()) weights.reserve(shard_edges[s]);
    for (const VertexId u : shard.local_to_global) {
      const EdgeIndex begin = g.offsets()[u];
      const auto neighbors = g.neighbors(u);
      const auto edge_weights = g.weighted()
                                    ? g.weights_of(u)
                                    : std::span<const graph::Weight>{};
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (shard_of_edge[begin + i] != s) continue;
        edges.push_back(shard.global_to_local.at(neighbors[i]));
        if (g.weighted()) weights.push_back(edge_weights[i]);
      }
      offsets.push_back(edges.size());
    }
    shard.graph = graph::CsrGraph(std::move(offsets), std::move(edges),
                                  std::move(weights));
    reorder_shard(shard, reorder);
  }

  // Cut statistics over the ownership assignment.
  CutStats& stats = p.stats;
  stats.total_edges = m;
  stats.num_shards = num_shards;
  stats.pair_cut_edges.assign(
      static_cast<std::size_t>(num_shards) * num_shards, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (p.owner[u] != p.owner[v]) {
        ++stats.cut_edges;
        ++stats.pair_cut_edges[static_cast<std::size_t>(p.owner[u]) *
                                   num_shards +
                               p.owner[v]];
      }
    }
  }
  stats.cut_fraction =
      m == 0 ? 0.0
             : static_cast<double>(stats.cut_edges) / static_cast<double>(m);
  stats.min_shard_edges =
      *std::min_element(shard_edges.begin(), shard_edges.end());
  stats.max_shard_edges =
      *std::max_element(shard_edges.begin(), shard_edges.end());
  const double avg_edges =
      static_cast<double>(m) / static_cast<double>(num_shards);
  stats.edge_imbalance =
      m == 0 ? 1.0
             : static_cast<double>(stats.max_shard_edges) / avg_edges;
  stats.vertex_replication =
      n == 0 ? 1.0
             : static_cast<double>(total_local_vertices) /
                   static_cast<double>(n);
  return p;
}

}  // namespace cxlgraph::partition
