#pragma once
/// \file datasets.hpp
/// The paper's three evaluation datasets (Table 1), reproduced at a
/// configurable scale.
///
///   urand27     uniform random, 2^27 vertices, avg degree 32.0
///   kron27      Kronecker (Graph500 R-MAT), 2^27 vertices, avg degree 67.0
///   Friendster  real-world social graph, avg degree 55.1
///
/// At `scale` s we generate 2^s vertices with the same average degree (for
/// kron, the same edge factor so the non-isolated average degree lands near
/// the paper's 67). Friendster is replaced by a Chung–Lu power-law graph —
/// see DESIGN.md's substitution table.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace cxlgraph::graph {

enum class DatasetId {
  kUrand,
  kKron,
  kFriendster,
};

struct DatasetSpec {
  DatasetId id;
  std::string name;        // "urand", "kron", "friendster"
  std::string paper_name;  // "urand27", ...
  double paper_avg_degree; // Table 1 value
};

/// The three Table-1 datasets, in paper order.
const std::vector<DatasetSpec>& paper_datasets();

/// The largest scale make_dataset accepts: 2^scale vertices must fit in
/// a 64-bit count. Front ends bound their --scale by it.
inline constexpr unsigned kMaxScale = 63;

/// Generates one dataset at 2^scale vertices. Weighted graphs (for SSSP)
/// carry uniform weights in [1, 63] as in the GAP benchmark. `jobs`
/// follows GeneratorOptions::jobs (1 = serial; output identical either
/// way). Throws std::invalid_argument for a scale above kMaxScale.
CsrGraph make_dataset(DatasetId id, unsigned scale, bool weighted,
                      std::uint64_t seed = 42, unsigned jobs = 0);

/// Parses "urand" / "kron" / "friendster" (case-sensitive).
DatasetId dataset_from_name(const std::string& name);

}  // namespace cxlgraph::graph
