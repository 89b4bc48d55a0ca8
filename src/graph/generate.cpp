#include "graph/generate.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "graph/builder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cxlgraph::graph {

namespace {

using util::Xoshiro256;

BuildOptions clean_options(bool clean) {
  BuildOptions opts;
  opts.symmetrize = clean;
  opts.remove_self_loops = clean;
  opts.dedup = clean;
  return opts;
}

void assign_weight(Edge& e, Xoshiro256& rng, std::uint32_t max_weight) {
  e.weight = max_weight == 0
                 ? 1
                 : static_cast<Weight>(rng.next_in(1, max_weight));
}

/// Seed for chunk `chunk` of the sampling loop: one SplitMix64 step over a
/// golden-ratio spread keeps neighboring chunks' Xoshiro states decorrelated.
std::uint64_t chunk_seed(std::uint64_t seed, std::uint64_t chunk) {
  util::SplitMix64 sm(seed ^ ((chunk + 1) * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

/// Runs fn(begin, end) over [0, n) under GeneratorOptions::jobs semantics:
/// 1 = serial on the calling thread, 0 = the shared default pool, N > 1 =
/// a scoped N-thread pool. Work splitting never changes the output — the
/// callers key their RNG streams to fixed positions, not to the split.
void run_with_jobs(unsigned jobs, std::uint64_t n,
                   const std::function<void(std::uint64_t, std::uint64_t)>& fn) {
  if (jobs == 1 || n <= 1) {
    fn(0, n);
  } else if (jobs == 0) {
    util::parallel_for(util::default_pool(), n, fn);
  } else {
    util::ThreadPool pool(jobs);
    util::parallel_for(pool, n, fn);
  }
}

/// Fills `edges` (pre-sized to the edge count) in kGeneratorChunkEdges
/// chunks; `sample(rng, i, edge)` produces edge i from the chunk's RNG.
/// The chunk grid is fixed, so output is identical for any `jobs`.
template <typename SampleFn>
void sample_edges_chunked(EdgeList& edges, const GeneratorOptions& options,
                          const SampleFn& sample) {
  const std::uint64_t num_edges = edges.size();
  const std::uint64_t chunks =
      (num_edges + kGeneratorChunkEdges - 1) / kGeneratorChunkEdges;
  run_with_jobs(options.jobs, chunks,
                [&](std::uint64_t chunk_begin, std::uint64_t chunk_end) {
                  for (std::uint64_t c = chunk_begin; c < chunk_end; ++c) {
                    Xoshiro256 rng(chunk_seed(options.seed, c));
                    const std::uint64_t begin = c * kGeneratorChunkEdges;
                    const std::uint64_t end =
                        std::min(num_edges, begin + kGeneratorChunkEdges);
                    for (std::uint64_t i = begin; i < end; ++i) {
                      sample(rng, edges[i]);
                    }
                  }
                });
}

}  // namespace

CsrGraph generate_uniform(std::uint64_t num_vertices, double avg_degree,
                          const GeneratorOptions& options) {
  if (num_vertices == 0) return CsrGraph({0}, {});
  if (avg_degree < 0) throw std::invalid_argument("negative avg_degree");
  // Undirected edges; symmetrization doubles directed degree back up.
  const auto num_edges = static_cast<std::uint64_t>(
      static_cast<double>(num_vertices) * avg_degree / 2.0);
  EdgeList edges(num_edges);
  sample_edges_chunked(edges, options, [&](Xoshiro256& rng, Edge& e) {
    e.src = rng.next_below(num_vertices);
    e.dst = rng.next_below(num_vertices);
    assign_weight(e, rng, options.max_weight);
  });
  return build_csr(num_vertices, std::move(edges),
                   clean_options(options.clean));
}

CsrGraph generate_kronecker(unsigned scale, double edge_factor,
                            const GeneratorOptions& options) {
  if (scale >= 48) throw std::invalid_argument("kronecker scale too large");
  const std::uint64_t num_vertices = std::uint64_t{1} << scale;
  const auto num_edges = static_cast<std::uint64_t>(
      static_cast<double>(num_vertices) * edge_factor);
  // Graph500 R-MAT probabilities.
  constexpr double kA = 0.57;
  constexpr double kB = 0.19;
  constexpr double kC = 0.19;

  EdgeList edges(num_edges);
  sample_edges_chunked(edges, options, [&](Xoshiro256& rng, Edge& e) {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      // Quadrant q = 0..3 is A = (0,0), B = (0,1), C = (1,0), D = (1,1):
      // the src bit is q's high bit, the dst bit its low bit. Summing the
      // comparisons keeps the pick free of branches that random r would
      // mispredict.
      const auto q = static_cast<std::uint64_t>(r >= kA) +
                     static_cast<std::uint64_t>(r >= kA + kB) +
                     static_cast<std::uint64_t>(r >= kA + kB + kC);
      src = (src << 1) | (q >> 1);
      dst = (dst << 1) | (q & 1);
    }
    e.src = src;
    e.dst = dst;
    assign_weight(e, rng, options.max_weight);
  });
  return build_csr(num_vertices, std::move(edges),
                   clean_options(options.clean));
}

CsrGraph generate_power_law(std::uint64_t num_vertices, double avg_degree,
                            double exponent,
                            const GeneratorOptions& options) {
  if (num_vertices == 0) return CsrGraph({0}, {});
  if (exponent <= 0) throw std::invalid_argument("exponent must be > 0");

  // Chung–Lu: vertex i gets expected weight w_i ∝ (i+1)^(-1/(exponent-1)).
  // We then sample edges by picking endpoints proportionally to w via the
  // inverse-CDF of the cumulative weights. The pow() evaluations dominate
  // setup, so they fan out; the running sum stays serial (it is a strict
  // prefix dependence and cheap).
  const double beta = 1.0 / (exponent - 1.0);
  std::vector<double> weight(num_vertices, 0.0);
  run_with_jobs(options.jobs, num_vertices,
                [&](std::uint64_t begin, std::uint64_t end) {
                  for (std::uint64_t i = begin; i < end; ++i) {
                    weight[i] = std::pow(static_cast<double>(i + 1), -beta);
                  }
                });
  std::vector<double> cumulative(num_vertices + 1, 0.0);
  for (std::uint64_t i = 0; i < num_vertices; ++i) {
    cumulative[i + 1] = cumulative[i] + weight[i];
  }
  const double total_weight = cumulative.back();

  const auto num_edges = static_cast<std::uint64_t>(
      static_cast<double>(num_vertices) * avg_degree / 2.0);

  // guide[j] is the search's answer (below) for the point
  // j * total_weight / n, so a target whose bucket index rounds to j has
  // its answer in [guide[j - 1], guide[j + 1]]. The bracket is checked
  // before use, with the whole range as the fallback, and the search
  // within a checked bracket returns the same index as over all of it.
  const std::uint64_t buckets = num_vertices;
  std::vector<std::uint64_t> guide(buckets + 1);
  std::uint64_t at = 0;
  for (std::uint64_t j = 0; j <= buckets; ++j) {
    const double point = static_cast<double>(j) * total_weight /
                         static_cast<double>(buckets);
    while (at + 1 < num_vertices && cumulative[at + 1] <= point) ++at;
    guide[j] = at;
  }
  const double buckets_per_weight =
      static_cast<double>(buckets) / total_weight;

  auto sample_vertex = [&](Xoshiro256& rng) -> VertexId {
    const double target = rng.next_double() * total_weight;
    // The last bucket also takes a target that rounds to the total (or
    // is NaN): the check below sends those to the whole range.
    const double scaled = target * buckets_per_weight;
    const std::uint64_t j = scaled < static_cast<double>(buckets - 1)
                                ? static_cast<std::uint64_t>(scaled)
                                : buckets - 1;
    std::uint64_t lo = guide[j == 0 ? 0 : j - 1];
    std::uint64_t hi = guide[j + 1] + 1;
    if (!(cumulative[lo] <= target &&
          (hi == num_vertices || cumulative[hi] > target))) {
      lo = 0;
      hi = num_vertices;
    }
    // Binary search for the last cumulative weight <= target, with
    // cumulative[lo] <= target and (hi == n or cumulative[hi] > target).
    while (lo + 1 < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (cumulative[mid] <= target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  EdgeList edges(num_edges);
  sample_edges_chunked(edges, options, [&](Xoshiro256& rng, Edge& e) {
    e.src = sample_vertex(rng);
    e.dst = sample_vertex(rng);
    assign_weight(e, rng, options.max_weight);
  });
  return build_csr(num_vertices, std::move(edges),
                   clean_options(options.clean));
}

CsrGraph make_path(std::uint64_t n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (std::uint64_t i = 0; i + 1 < n; ++i) pairs.emplace_back(i, i + 1);
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr_from_pairs(n, pairs, opts);
}

CsrGraph make_ring(std::uint64_t n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (std::uint64_t i = 0; i + 1 < n; ++i) pairs.emplace_back(i, i + 1);
  if (n > 2) pairs.emplace_back(n - 1, 0);
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr_from_pairs(n, pairs, opts);
}

CsrGraph make_star(std::uint64_t leaves) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (std::uint64_t i = 1; i <= leaves; ++i) pairs.emplace_back(0, i);
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr_from_pairs(leaves + 1, pairs, opts);
}

CsrGraph make_complete(std::uint64_t n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr_from_pairs(n, pairs, opts);
}

CsrGraph make_grid(std::uint64_t rows, std::uint64_t cols) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  auto id = [cols](std::uint64_t r, std::uint64_t c) { return r * cols + c; };
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) pairs.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) pairs.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr_from_pairs(rows * cols, pairs, opts);
}

}  // namespace cxlgraph::graph
