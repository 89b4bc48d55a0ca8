#pragma once
/// \file io.hpp
/// Graph serialization: a compact binary CSR container plus a text edge-list
/// reader/writer for interoperability with common graph tooling.

#include <iosfwd>
#include <string>

#include "graph/csr.hpp"

namespace cxlgraph::graph {

/// Binary container layout (little-endian):
///   magic "CXLG" | u32 version | u64 n | u64 m | u8 weighted |
///   offsets[n+1] u64 | edges[m] u64 | weights[m] u32 (if weighted)
void save_binary(const CsrGraph& graph, std::ostream& os);
CsrGraph load_binary(std::istream& is);

void save_binary_file(const CsrGraph& graph, const std::string& path);
CsrGraph load_binary_file(const std::string& path);

/// Text edge list: one "src dst [weight]" triple per line; '#' comments.
CsrGraph load_edge_list(std::istream& is, bool symmetrize = false);

}  // namespace cxlgraph::graph
