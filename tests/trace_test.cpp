/// Tests for access-trace construction (frontier ordering, hub chunking)
/// and trace serialization.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "algo/bfs.hpp"
#include "algo/trace.hpp"
#include "algo/trace_io.hpp"
#include "graph/builder.hpp"
#include "graph/generate.hpp"

namespace cxlgraph::algo {
namespace {

using graph::CsrGraph;
using graph::VertexId;

TEST(TraceOrdering, StepsAreVertexIdSorted) {
  const CsrGraph g = graph::generate_uniform(1024, 8.0, {});
  const auto frontiers = bfs(g, pick_source(g, 1)).frontiers;
  const AccessTrace trace = build_trace(g, frontiers);
  for (std::size_t s = 0; s < trace.num_steps(); ++s) {
    const auto reads = trace.step_reads(s);
    for (std::size_t i = 1; i < reads.size(); ++i) {
      EXPECT_LE(reads[i - 1].vertex, reads[i].vertex);
      // Sorted vertices => sorted byte offsets (CSR layout is monotone).
      EXPECT_LE(reads[i - 1].byte_offset, reads[i].byte_offset);
    }
  }
}

TEST(TraceChunking, HubSublistsSplitAtChunkLimit) {
  // A star hub with 1,000 leaves has an 8,000 B sublist: it must appear as
  // ceil(8000/2048) = 4 chunks.
  const CsrGraph g = graph::make_star(1000);
  const AccessTrace trace = build_trace(g, {{0}});
  ASSERT_EQ(trace.num_steps(), 1u);
  EXPECT_EQ(trace.step_reads(0).size(), 4u);
  std::uint64_t covered = 0;
  std::uint64_t expected_offset = g.sublist_byte_offset(0);
  for (const auto& read : trace.step_reads(0)) {
    EXPECT_LE(read.byte_len, kMaxWorkChunkBytes);
    EXPECT_EQ(read.byte_offset, expected_offset);  // contiguous chunks
    EXPECT_EQ(read.vertex, 0u);
    expected_offset += read.byte_len;
    covered += read.byte_len;
  }
  EXPECT_EQ(covered, g.sublist_bytes(0));
}

TEST(TraceChunking, SmallSublistsStayWhole) {
  const CsrGraph g = graph::make_star(10);  // 80 B hub sublist
  const AccessTrace trace = build_trace(g, {{0}});
  ASSERT_EQ(trace.step_reads(0).size(), 1u);
  EXPECT_EQ(trace.step_reads(0)[0].byte_len, 80u);
}

TEST(TraceChunking, TotalsCountChunks) {
  const CsrGraph g = graph::make_star(1000);
  const AccessTrace trace = build_trace(g, {{0}});
  EXPECT_EQ(trace.total_reads, 4u);
  EXPECT_EQ(trace.total_sublist_bytes, 8000u);
}

TEST(TraceIo, RoundTrip) {
  const CsrGraph g = graph::generate_uniform(2048, 12.0, {});
  const auto frontiers = bfs(g, pick_source(g, 5)).frontiers;
  // Writes and a barrier-aligned empty step (an idle shard's) must
  // survive the round trip too.
  AccessTrace with_writes = build_writeback_trace(g, frontiers);
  with_writes.commit_step(/*keep_if_empty=*/true);
  ASSERT_GT(with_writes.total_writes, 0u);
  for (const AccessTrace& original :
       {build_trace(g, frontiers), with_writes}) {
    std::stringstream buffer;
    save_trace(original, buffer);
    const AccessTrace loaded = load_trace(buffer);
    EXPECT_EQ(loaded.num_steps(), original.num_steps());
    EXPECT_EQ(loaded.total_writes, original.total_writes);
    EXPECT_TRUE(loaded == original);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  save_trace(AccessTrace{}, buffer);
  const AccessTrace loaded = load_trace(buffer);
  EXPECT_EQ(loaded.num_steps(), 0u);
  EXPECT_EQ(loaded.total_reads, 0u);
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream buffer("not a trace at all");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTamperedTotals) {
  const CsrGraph g = graph::make_star(5);
  AccessTrace trace = build_trace(g, {{0}});
  trace.total_sublist_bytes += 1;  // corrupt the checksum-style totals
  std::stringstream buffer;
  save_trace(trace, buffer);
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsHugeHeaderCounts) {
  // Every header count claims 2^60: the loader must fail on the missing
  // contents, not try to allocate from the unchecked counts.
  std::stringstream buffer;
  save_trace(AccessTrace{}, buffer);
  std::string bytes = buffer.str();
  const std::uint64_t huge = std::uint64_t{1} << 60;
  for (std::size_t field = 0; field < 5; ++field) {
    std::memcpy(bytes.data() + 8 + field * sizeof(huge), &huge, sizeof(huge));
  }
  std::stringstream corrupt(bytes);
  EXPECT_THROW(load_trace(corrupt), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  const CsrGraph g = graph::generate_uniform(256, 8.0, {});
  const AccessTrace trace =
      build_trace(g, bfs(g, pick_source(g, 6)).frontiers);
  std::stringstream buffer;
  save_trace(trace, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_trace(truncated), std::runtime_error);
}

}  // namespace
}  // namespace cxlgraph::algo
