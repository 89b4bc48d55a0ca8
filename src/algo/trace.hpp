#pragma once
/// \file trace.hpp
/// Edge-sublist access traces.
///
/// The paper's traversal algorithms read one *edge sublist* (a vertex's
/// contiguous neighbor run in the edge list) per visited frontier vertex,
/// one synchronized step (BFS level / SSSP iteration) at a time. A trace
/// records exactly those byte ranges per step. The GPU engine replays a
/// trace against a memory-system model; the cache module replays it to
/// measure read amplification (Fig. 3). `total_sublist_bytes` is the
/// paper's E — the denominator of the RAF D/E.
///
/// Storage is arena-style: every step's reads (and writes) live in two
/// contiguous vectors, with per-step extents recording where each step
/// ends. Construction reserves the arenas exactly once (builders know the
/// totals from frontier degree sums), replay walks one flat array, and a
/// million-read trace costs two allocations instead of one per step.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/layout.hpp"

namespace cxlgraph::algo {

/// One edge-sublist read: the byte range of `vertex`'s neighbors within the
/// external-memory edge list.
struct SublistRef {
  graph::VertexId vertex = 0;
  std::uint64_t byte_offset = 0;
  std::uint64_t byte_len = 0;

  friend bool operator==(const SublistRef&, const SublistRef&) = default;
};

/// One external-memory write (Sec.-5 extension): e.g. storing a result
/// property for a vertex.
struct WriteRef {
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const WriteRef&, const WriteRef&) = default;
};

/// GPU traversals process a frontier's edges warp-parallel, so a hub
/// vertex's multi-megabyte sublist is fetched by many warps at once, not
/// serially by one. Traces model that by splitting sublists into work
/// chunks of at most this many bytes (= the XLFDD maximum transfer, so no
/// access method's per-request semantics change).
inline constexpr std::uint64_t kMaxWorkChunkBytes = 2048;

struct AccessTrace {
  /// Arena storage: step s's reads span
  /// read_arena[step_ends[s-1].read_end .. step_ends[s].read_end).
  std::vector<SublistRef> read_arena;
  std::vector<WriteRef> write_arena;
  struct StepExtent {
    std::uint64_t read_end = 0;
    std::uint64_t write_end = 0;

    friend bool operator==(const StepExtent&, const StepExtent&) = default;
  };
  std::vector<StepExtent> step_ends;

  /// Sum of all sublist byte lengths (paper's E).
  std::uint64_t total_sublist_bytes = 0;
  /// Total number of sublist reads across steps.
  std::uint64_t total_reads = 0;
  /// Write-side totals (zero for the paper's read-only workloads).
  std::uint64_t total_write_bytes = 0;
  std::uint64_t total_writes = 0;

  std::size_t num_steps() const noexcept { return step_ends.size(); }

  std::span<const SublistRef> step_reads(std::size_t s) const noexcept {
    const std::uint64_t begin = s == 0 ? 0 : step_ends[s - 1].read_end;
    return {read_arena.data() + begin, step_ends[s].read_end - begin};
  }

  std::span<const WriteRef> step_writes(std::size_t s) const noexcept {
    const std::uint64_t begin = s == 0 ? 0 : step_ends[s - 1].write_end;
    return {write_arena.data() + begin, step_ends[s].write_end - begin};
  }

  /// Number of reads a sublist of `bytes` splits into (one per chunk).
  static constexpr std::uint64_t chunks(std::uint64_t bytes) noexcept {
    return (bytes + kMaxWorkChunkBytes - 1) / kMaxWorkChunkBytes;
  }

  /// Pre-sizes the arenas; pass exact totals (sum of chunks() over the
  /// sublists to come) to make construction allocation-free from here on.
  void reserve(std::size_t steps, std::size_t reads, std::size_t writes = 0) {
    step_ends.reserve(steps);
    read_arena.reserve(reads);
    write_arena.reserve(writes);
  }

  /// Adds `bytes` of `vertex`'s sublist, starting at edge-list byte
  /// `offset`, to the open step as work chunks of at most
  /// kMaxWorkChunkBytes, and counts them in the totals. This is the only
  /// code that turns a sublist into reads: every builder and every shard
  /// of a cluster call it, so a one-shard cluster trace equals the
  /// single-runtime trace by construction.
  void add_sublist(graph::VertexId vertex, std::uint64_t offset,
                   std::uint64_t bytes) {
    total_sublist_bytes += bytes;
    while (bytes > 0) {
      const std::uint64_t chunk = std::min(bytes, kMaxWorkChunkBytes);
      read_arena.push_back(SublistRef{vertex, offset, chunk});
      ++total_reads;
      offset += chunk;
      bytes -= chunk;
    }
  }

  /// Raw arena pushes for the open step (deserialization, writes); unlike
  /// add_sublist they leave the totals to the caller.
  void add_read(const SublistRef& read) { read_arena.push_back(read); }
  void add_write(const WriteRef& write) { write_arena.push_back(write); }

  /// True when reads or writes were added since the last committed step.
  bool step_pending() const noexcept {
    const StepExtent prev =
        step_ends.empty() ? StepExtent{} : step_ends.back();
    return read_arena.size() != prev.read_end ||
           write_arena.size() != prev.write_end;
  }

  /// Closes the open step. By default a step with no reads and no writes
  /// is dropped (the single-runtime builders' contract); pass
  /// keep_if_empty for barrier-aligned multi-shard traces, where an idle
  /// shard must still consume its superstep slot.
  void commit_step(bool keep_if_empty = false) {
    if (!keep_if_empty && !step_pending()) return;
    step_ends.push_back(StepExtent{read_arena.size(), write_arena.size()});
  }

  double avg_sublist_bytes() const noexcept {
    return total_reads == 0 ? 0.0
                            : static_cast<double>(total_sublist_bytes) /
                                  static_cast<double>(total_reads);
  }

  friend bool operator==(const AccessTrace&, const AccessTrace&) = default;
};

/// Commits one barrier-aligned superstep across per-shard traces: every
/// shard's open step, empty ones included, when any shard added to it;
/// nothing otherwise, since nothing was written. Returns whether the
/// superstep was kept. At one shard this is exactly commit_step().
bool commit_superstep(std::span<AccessTrace> traces);

/// The buffers sorted_frontier sorts into, kept by a builder across its
/// steps so a schedule of frontiers allocates only when one outgrows them.
struct FrontierScratch {
  std::vector<graph::VertexId> sorted;
  std::vector<graph::VertexId> spare;
};

/// Returns `raw` if it is already vertex-ID sorted, else a sorted copy
/// held in `scratch` (valid until its next use). The copy is sorted by
/// util::radix_sort, a few linear passes over the bytes the IDs use. IDs
/// are integers, so every sort gives the same order. Every frontier-shaped
/// trace builder and the cluster's decompositions order through this, so
/// the ordering contract lives in one place.
const std::vector<graph::VertexId>& sorted_frontier(
    const std::vector<graph::VertexId>& raw, FrontierScratch& scratch);

/// Builds a trace from per-step frontiers: step k reads the sublist of every
/// frontier vertex with nonzero degree, in ascending vertex-ID order,
/// chunked at kMaxWorkChunkBytes.
AccessTrace build_trace(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers);

/// A full sequential scan of the edge list in one step (PageRank-style
/// workloads; used to contrast sequential vs random access).
AccessTrace build_sequential_trace(const graph::CsrGraph& graph,
                                   unsigned num_iterations = 1);

/// BFS with result write-back (Sec.-5 extension): reads are the usual
/// frontier sublists; each step additionally writes `property_bytes` per
/// newly-visited vertex into a result region placed after the edge list
/// (vertex v's property lives at region + v * property_bytes).
AccessTrace build_writeback_trace(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers,
    std::uint32_t property_bytes = 8);

/// build_trace against a preprocessed edge-list layout (see
/// graph/layout.hpp): identical frontier semantics, sublist byte ranges
/// taken from the layout's padded offsets.
AccessTrace build_trace_with_layout(
    const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::VertexId>>& frontiers,
    const graph::EdgeListLayout& layout);

}  // namespace cxlgraph::algo
