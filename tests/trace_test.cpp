/// Tests for access-trace construction (frontier ordering, hub chunking).

#include <gtest/gtest.h>

#include "algo/bfs.hpp"
#include "algo/trace.hpp"
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

}  // namespace
}  // namespace cxlgraph::algo
