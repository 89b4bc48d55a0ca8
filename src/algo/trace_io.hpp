#pragma once
/// \file trace_io.hpp
/// Binary serialization for access traces.
///
/// Traces are the interchange point of the whole pipeline (algorithm ->
/// memory-system simulation), so being able to persist them enables
/// workflows the paper's methodology implies: capture a traversal once on
/// a big machine, replay it against many device models elsewhere, or check
/// in regression traces.

#include <iosfwd>
#include <string>

#include "algo/trace.hpp"

namespace cxlgraph::algo {

/// Layout (little-endian), version 2:
///   magic "CXTR" | u32 version | u64 total_sublist_bytes | u64 total_reads
///   u64 total_write_bytes | u64 total_writes | u64 num_steps
///   per step: u64 num_reads | reads as (u64 vertex, u64 byte_offset,
///   u64 byte_len) | u64 num_writes | writes as (u64 addr, u64 bytes)
/// Lossless: load_trace(save_trace(t)) == t, empty steps included.
void save_trace(const AccessTrace& trace, std::ostream& os);
/// Throws std::runtime_error on a bad magic or version, a truncated
/// stream, or totals that disagree with the contents.
AccessTrace load_trace(std::istream& is);

void save_trace_file(const AccessTrace& trace, const std::string& path);
AccessTrace load_trace_file(const std::string& path);

}  // namespace cxlgraph::algo
