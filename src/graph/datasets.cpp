#include "graph/datasets.hpp"

#include <stdexcept>

#include "graph/generate.hpp"

namespace cxlgraph::graph {

const std::vector<DatasetSpec>& paper_datasets() {
  static const std::vector<DatasetSpec> specs = {
      {DatasetId::kUrand, "urand", "urand27", 32.0},
      {DatasetId::kKron, "kron", "kron27", 67.0},
      {DatasetId::kFriendster, "friendster", "Friendster", 55.1},
  };
  return specs;
}

CsrGraph make_dataset(DatasetId id, unsigned scale, bool weighted,
                      std::uint64_t seed, unsigned jobs) {
  if (scale > kMaxScale) {
    throw std::invalid_argument("dataset scale " + std::to_string(scale) +
                                " above " + std::to_string(kMaxScale) +
                                ": 2^scale vertices overflow 64 bits");
  }
  GeneratorOptions options;
  options.seed = seed;
  options.max_weight = weighted ? 63 : 0;  // GAP benchmark convention
  options.jobs = jobs;
  switch (id) {
    case DatasetId::kUrand:
      return generate_uniform(std::uint64_t{1} << scale, 32.0, options);
    case DatasetId::kKron:
      // Graph500 edge factor 16 yields directed degree 32 before
      // symmetrization; R-MAT skew leaves ~half the vertices isolated, so
      // the non-isolated average degree lands in the paper's ~67 range.
      return generate_kronecker(scale, 16.0, options);
    case DatasetId::kFriendster:
      // Power-law exponent 2.5 approximates Friendster's degree skew.
      return generate_power_law(std::uint64_t{1} << scale, 55.1, 2.5,
                                options);
  }
  throw std::invalid_argument("unknown dataset id");
}

DatasetId dataset_from_name(const std::string& name) {
  for (const DatasetSpec& spec : paper_datasets()) {
    if (spec.name == name || spec.paper_name == name) return spec.id;
  }
  throw std::invalid_argument("unknown dataset: " + name);
}

}  // namespace cxlgraph::graph
