#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <ostream>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/sssp.hpp"
#include "algo/trace.hpp"
#include "cache/raf.hpp"
#include "cache/sw_cache.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "util/rng.hpp"

namespace cxlgraph::cache {
namespace {

// ------------------------------------------------------------ sw_cache ----

TEST(SwCache, DisabledCacheAlwaysMisses) {
  SwCache cache({.capacity_bytes = 0, .line_bytes = 64, .ways = 4});
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.access_line(1));
  EXPECT_FALSE(cache.access_line(1));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SwCache, SecondAccessHits) {
  SwCache cache({.capacity_bytes = 1 << 16, .line_bytes = 64, .ways = 4});
  EXPECT_FALSE(cache.access_line(7));
  EXPECT_TRUE(cache.access_line(7));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SwCache, RejectsNonPowerOfTwoLine) {
  EXPECT_THROW(SwCache({.capacity_bytes = 1024, .line_bytes = 48,
                        .ways = 2}),
               std::invalid_argument);
}

TEST(SwCache, LruEvictionWithinSet) {
  // 1 set, 2 ways: lines mapping to the same set compete.
  SwCache cache({.capacity_bytes = 128, .line_bytes = 64, .ways = 2});
  ASSERT_EQ(cache.num_sets(), 1u);
  cache.access_line(0);
  cache.access_line(1);
  cache.access_line(0);          // 0 is now most recent
  cache.access_line(2);          // evicts 1 (LRU)
  EXPECT_TRUE(cache.access_line(0));
  EXPECT_FALSE(cache.access_line(1));
}

TEST(SwCache, DistinctSetsDoNotConflict) {
  // 2 sets x 1 way: even/odd lines land in different sets.
  SwCache cache({.capacity_bytes = 128, .line_bytes = 64, .ways = 1});
  ASSERT_EQ(cache.num_sets(), 2u);
  cache.access_line(0);
  cache.access_line(1);
  EXPECT_TRUE(cache.access_line(0));
  EXPECT_TRUE(cache.access_line(1));
}

TEST(SwCache, AccessRangeReportsMissingLines) {
  SwCache cache({.capacity_bytes = 1 << 16, .line_bytes = 64, .ways = 4});
  std::vector<std::uint64_t> missing;
  // Bytes [100, 300): lines 1..4.
  cache.access_range(100, 200,
                     [&](std::uint64_t line) { missing.push_back(line); });
  EXPECT_EQ(missing, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  missing.clear();
  cache.access_range(100, 200,
                     [&](std::uint64_t line) { missing.push_back(line); });
  EXPECT_TRUE(missing.empty());
}

TEST(SwCache, AccessRangeZeroLengthIsNoop) {
  SwCache cache({.capacity_bytes = 1 << 16, .line_bytes = 64, .ways = 4});
  bool called = false;
  cache.access_range(128, 0, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SwCache, ResetColdClearsContents) {
  SwCache cache({.capacity_bytes = 1 << 12, .line_bytes = 64, .ways = 4});
  cache.access_line(5);
  cache.reset();
  EXPECT_FALSE(cache.access_line(5));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SwCache, WaysCappedAtLineCount) {
  SwCache cache({.capacity_bytes = 128, .line_bytes = 64, .ways = 16});
  EXPECT_LE(cache.ways(), 2u);
}

// ------------------------------------------- sw_cache vs a reference LRU ----

/// Deliberately naive set-associative LRU: per set, a std::list ordered by
/// recency. Slow but self-evidently correct; it takes only the set count
/// and associativity from the cache under test.
class ReferenceLru {
 public:
  explicit ReferenceLru(const SwCache& shape)
      : sets_(std::max<std::uint64_t>(shape.num_sets(), 1)),
        ways_(shape.ways()) {}

  bool access(std::uint64_t line) {
    std::list<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) set.erase(it);
    set.push_front(line);
    if (set.size() > ways_) set.pop_back();
    ++(hit ? stats_.hits : stats_.misses);
    return hit;
  }

  void reset() {
    for (auto& set : sets_) set.clear();
    stats_ = SwCacheStats{};
  }

  const SwCacheStats& stats() const { return stats_; }

 private:
  std::vector<std::list<std::uint64_t>> sets_;
  std::uint32_t ways_;
  SwCacheStats stats_;
};

struct CacheShape {
  const char* name;
  SwCacheParams params;

  friend void PrintTo(const CacheShape& shape, std::ostream* os) {
    *os << shape.name;
  }
};

class SwCacheVsReference : public ::testing::TestWithParam<CacheShape> {};

/// Line streams over a footprint of about twice the cache: uniform with a
/// hot region, or ascending runs like an edge-list scan.
std::vector<std::uint64_t> line_stream(std::uint64_t seed, bool runs,
                                       std::uint64_t lines, int length) {
  util::Xoshiro256 rng(seed);
  const std::uint64_t footprint = 2 * std::max<std::uint64_t>(lines, 4);
  std::vector<std::uint64_t> out;
  while (static_cast<int>(out.size()) < length) {
    if (runs) {
      const std::uint64_t start = rng.next_below(footprint);
      const std::uint64_t len = 1 + rng.next_below(48);
      for (std::uint64_t l = start; l < start + len; ++l) out.push_back(l);
    } else {
      out.push_back(rng.next_double() < 0.8 ? rng.next_below(footprint)
                                            : rng.next_below(1 << 20));
    }
  }
  out.resize(static_cast<std::size_t>(length));
  return out;
}

TEST_P(SwCacheVsReference, HitsAndStatsMatchOnEveryAccess) {
  const SwCacheParams& params = GetParam().params;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool runs : {false, true}) {
      SwCache cache(params);
      ReferenceLru reference(cache);
      const std::uint64_t lines = cache.num_sets() * cache.ways();
      // Two passes with a reset between them: the second starts cold.
      for (int pass = 0; pass < 2; ++pass) {
        const auto stream =
            line_stream(seed * 2 + static_cast<std::uint64_t>(pass), runs,
                        lines, 10'000);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          ASSERT_EQ(cache.access_line(stream[i]),
                    reference.access(stream[i]))
              << "seed " << seed << " runs " << runs << " pass " << pass
              << " access " << i << " line " << stream[i];
        }
        EXPECT_EQ(cache.stats().hits, reference.stats().hits);
        EXPECT_EQ(cache.stats().misses, reference.stats().misses);
        cache.reset();
        reference.reset();
        EXPECT_EQ(cache.stats().hits, 0u);
        EXPECT_EQ(cache.stats().misses, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SwCacheVsReference,
    ::testing::Values(
        CacheShape{"disabled", {.capacity_bytes = 0, .line_bytes = 64,
                                .ways = 4}},
        CacheShape{"one_set", {.capacity_bytes = 8 * 64, .line_bytes = 64,
                               .ways = 8}},
        CacheShape{"ways_capped", {.capacity_bytes = 4 * 64,
                                   .line_bytes = 64, .ways = 16}},
        CacheShape{"sets_rounded_down", {.capacity_bytes = 48 * 64,
                                         .line_bytes = 64, .ways = 16}},
        CacheShape{"emogi_64k_32b", {.capacity_bytes = 64 << 10,
                                     .line_bytes = 32, .ways = 16}},
        CacheShape{"bam_4k_lines", {.capacity_bytes = 1 << 20,
                                    .line_bytes = 4096, .ways = 16}}),
    [](const ::testing::TestParamInfo<CacheShape>& info) {
      return std::string(info.param.name);
    });

// ----------------------------------------------------------------- raf ----

algo::AccessTrace bfs_trace(const graph::CsrGraph& g, std::uint64_t seed) {
  return algo::build_trace(
      g, algo::bfs(g, algo::pick_source(g, seed)).frontiers);
}

TEST(Raf, EightByteAlignmentIsExactlyOne) {
  // Sublist offsets and lengths are multiples of 8 (8 B per vertex ID), so
  // an 8 B alignment fetches exactly the used bytes when uncached.
  const graph::CsrGraph g = graph::generate_uniform(2048, 12.0, {});
  const algo::AccessTrace t = bfs_trace(g, 1);
  RafOptions options;
  options.alignment = 8;
  options.cache_capacity_bytes = 0;
  const RafResult r = evaluate_raf(t, options);
  EXPECT_EQ(r.fetched_bytes, r.used_bytes);
  EXPECT_DOUBLE_EQ(r.raf(), 1.0);
}

TEST(Raf, UncachedRafGrowsWithAlignment) {
  const graph::CsrGraph g = graph::generate_uniform(4096, 32.0, {});
  const algo::AccessTrace t = bfs_trace(g, 2);
  double prev = 0.0;
  for (const std::uint32_t a : {8u, 32u, 128u, 512u, 4096u}) {
    RafOptions options;
    options.alignment = a;
    const double raf = evaluate_raf(t, options).raf();
    EXPECT_GE(raf, prev) << "alignment " << a;
    prev = raf;
  }
}

TEST(Raf, RafIsAtLeastOne) {
  const graph::CsrGraph g = graph::generate_uniform(1024, 8.0, {});
  const algo::AccessTrace t = bfs_trace(g, 3);
  for (const std::uint32_t a : {8u, 64u, 1024u}) {
    RafOptions options;
    options.alignment = a;
    EXPECT_GE(evaluate_raf(t, options).raf(), 1.0);
  }
}

TEST(Raf, CacheReducesFetchedBytes) {
  const graph::CsrGraph g = graph::generate_uniform(4096, 32.0, {});
  const algo::AccessTrace t = bfs_trace(g, 4);
  RafOptions uncached;
  uncached.alignment = 4096;
  RafOptions cached = uncached;
  cached.cache_capacity_bytes = g.edge_list_bytes() / 4;
  EXPECT_LT(evaluate_raf(t, cached).fetched_bytes,
            evaluate_raf(t, uncached).fetched_bytes);
}

TEST(Raf, InfiniteCacheBoundsFetchByLineCount) {
  // With a cache as large as the edge list, every line is fetched at most
  // once: D <= edge_list_bytes rounded up per line.
  const graph::CsrGraph g = graph::generate_uniform(2048, 16.0, {});
  const algo::AccessTrace t = bfs_trace(g, 5);
  RafOptions options;
  options.alignment = 512;
  options.cache_capacity_bytes = 4 * g.edge_list_bytes();
  const RafResult r = evaluate_raf(t, options);
  const std::uint64_t max_lines =
      (g.edge_list_bytes() + 511) / 512 + 1;
  EXPECT_LE(r.fetched_bytes, max_lines * 512);
}

TEST(Raf, UsedBytesEqualsTraceTotal) {
  const graph::CsrGraph g = graph::generate_uniform(1024, 8.0, {});
  const algo::AccessTrace t = bfs_trace(g, 6);
  RafOptions options;
  options.alignment = 64;
  EXPECT_EQ(evaluate_raf(t, options).used_bytes, t.total_sublist_bytes);
}

TEST(Raf, SweepMatchesIndividualEvaluations) {
  const graph::CsrGraph g = graph::generate_uniform(1024, 8.0, {});
  const algo::AccessTrace t = bfs_trace(g, 7);
  const std::vector<std::uint32_t> alignments = {16, 64, 256};
  const auto sweep = raf_sweep(t, alignments, 1 << 16);
  ASSERT_EQ(sweep.size(), 3u);
  for (std::size_t i = 0; i < alignments.size(); ++i) {
    RafOptions options;
    options.alignment = alignments[i];
    options.cache_capacity_bytes = 1 << 16;
    EXPECT_EQ(sweep[i].fetched_bytes,
              evaluate_raf(t, options).fetched_bytes);
  }
}

// Parameterized sweep: the Fig.-3 invariant (RAF non-decreasing in the
// alignment, bounded below by 1) must hold for every dataset and both
// traversal algorithms.
struct RafCase {
  graph::DatasetId dataset;
  bool sssp;
};

class RafProperty : public ::testing::TestWithParam<RafCase> {};

TEST_P(RafProperty, MonotoneInAlignment) {
  const auto [dataset, sssp] = GetParam();
  const graph::CsrGraph g =
      graph::make_dataset(dataset, 11, /*weighted=*/sssp, 13);
  const graph::VertexId s = algo::pick_source(g, 13);
  const algo::AccessTrace t =
      sssp ? algo::build_trace(g, algo::sssp_frontier(g, s).frontiers)
           : algo::build_trace(g, algo::bfs(g, s).frontiers);
  const std::vector<std::uint32_t> alignments = {8,  16,  32,  64,
                                                 128, 512, 2048, 4096};
  // Cached: SSSP re-reads can even dip RAF below 1 at tiny alignments, and
  // eviction noise allows small local dips — require only near-monotone.
  const auto cached = raf_sweep(t, alignments, g.edge_list_bytes() / 4);
  double prev = 0.0;
  for (const auto& r : cached) {
    EXPECT_GE(r.raf(), prev * 0.97);
    prev = std::max(prev, r.raf());
  }
  // Uncached: strict monotonicity and RAF >= 1 must hold exactly.
  const auto uncached = raf_sweep(t, alignments, 0);
  prev = 1.0;
  for (const auto& r : uncached) {
    EXPECT_GE(r.raf(), prev - 1e-12);
    prev = r.raf();
  }
  EXPECT_GE(uncached.front().raf(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, RafProperty,
    ::testing::Values(RafCase{graph::DatasetId::kUrand, false},
                      RafCase{graph::DatasetId::kKron, false},
                      RafCase{graph::DatasetId::kFriendster, false},
                      RafCase{graph::DatasetId::kUrand, true},
                      RafCase{graph::DatasetId::kKron, true},
                      RafCase{graph::DatasetId::kFriendster, true}));

}  // namespace
}  // namespace cxlgraph::cache
