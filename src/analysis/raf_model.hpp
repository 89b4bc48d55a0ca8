#pragma once
/// \file raf_model.hpp
/// Closed-form read-amplification expectations.
///
/// For a sublist of length l fetched at alignment a with its start offset
/// uniformly distributed over the 8 B positions within a line, the
/// expected fetched bytes are a·E[lines(l, a)]. Summing over a graph's
/// degree distribution predicts the *uncached* RAF of Fig. 3 analytically.
/// expected_lines and predicted_uncached_raf are test oracles, which no
/// product calls: the tests cross-validate the trace-driven cache
/// simulator against them.

#include <cstdint>

#include "graph/csr.hpp"

namespace cxlgraph::analysis {

/// Expected number of alignment-`a` lines covering a read of `len` bytes
/// whose start is uniform over the 8-byte-granular offsets within a line.
/// Exact enumeration (a/8 cases), not an approximation.
double expected_lines(std::uint64_t len, std::uint32_t alignment);

/// Expected uncached fetched bytes for one read of `len` bytes.
inline double expected_fetched_bytes(std::uint64_t len,
                                     std::uint32_t alignment) {
  return expected_lines(len, alignment) * alignment;
}

/// Predicted uncached RAF for reading every vertex's sublist once (one
/// full traversal of a connected graph).
double predicted_uncached_raf(const graph::CsrGraph& graph,
                              std::uint32_t alignment);

/// Predicted uncached RAF when sublist starts are padded to the alignment
/// (the aligned layout of graph/layout.hpp): only tail rounding remains.
double predicted_padded_raf(const graph::CsrGraph& graph,
                            std::uint32_t alignment);

}  // namespace cxlgraph::analysis
