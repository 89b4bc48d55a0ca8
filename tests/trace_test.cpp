/// Tests for access-trace construction (frontier ordering, hub chunking).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/trace.hpp"
#include "graph/builder.hpp"
#include "graph/generate.hpp"
#include "util/rng.hpp"

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

// The radix sort must order every frontier as std::sort does: the
// smallest sizes, about two dozen IDs, sizes around the 256-bucket digit,
// IDs that use one, two, five and all eight bytes, in sorted, reversed
// and shuffled order. One scratch serves every case, as one serves a
// builder's steps.
TEST(Trace, SortedFrontierMatchesStdSort) {
  util::Xoshiro256 rng(7);
  FrontierScratch scratch;
  const VertexId near_top = ~VertexId{0} - 1000;
  for (const std::size_t size : {0, 1, 2, 23, 24, 255, 256, 257, 10'000}) {
    for (const VertexId below : {VertexId{1} << 8, VertexId{1} << 16,
                                 VertexId{1} << 40, VertexId{0}}) {
      std::vector<VertexId> ids(size);
      for (VertexId& id : ids) {
        // below == 0 draws IDs within 1,000 of 2^64 - 1.
        id = below == 0 ? near_top + rng.next_below(1001)
                        : rng.next_below(below);
      }
      std::vector<VertexId> expected = ids;
      std::sort(expected.begin(), expected.end());
      std::vector<VertexId> reversed = expected;
      std::reverse(reversed.begin(), reversed.end());
      for (const std::vector<VertexId>* input : {&expected, &reversed, &ids}) {
        SCOPED_TRACE("size " + std::to_string(size) + " below " +
                     std::to_string(below) + " input " +
                     (input == &ids ? "shuffled"
                                    : input == &expected ? "sorted"
                                                         : "reversed"));
        EXPECT_EQ(sorted_frontier(*input, scratch), expected);
      }
    }
  }
}

// Sorting is the builders' only use of frontier order, so shuffled
// frontiers must build the presorted trace exactly.
TEST(Trace, ShuffledFrontiersBuildThePresortedTrace) {
  const CsrGraph g = graph::generate_uniform(1 << 12, 8.0, {});
  const auto discovered = bfs(g, pick_source(g, 1)).frontiers;
  auto presorted = discovered;
  auto shuffled = discovered;
  util::Xoshiro256 rng(3);
  for (std::size_t k = 0; k < discovered.size(); ++k) {
    std::sort(presorted[k].begin(), presorted[k].end());
    std::vector<VertexId>& f = shuffled[k];
    for (std::size_t i = f.size(); i > 1; --i) {
      std::swap(f[i - 1], f[rng.next_below(i)]);
    }
  }
  EXPECT_EQ(build_trace(g, shuffled), build_trace(g, presorted));
  EXPECT_EQ(build_trace(g, discovered), build_trace(g, presorted));
  EXPECT_EQ(build_writeback_trace(g, shuffled),
            build_writeback_trace(g, presorted));
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
