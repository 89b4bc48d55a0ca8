/// Reference-model checks: components are exercised with randomized
/// operation streams against independent, obviously-correct oracles.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <unordered_map>

#include "cache/sw_cache.hpp"
#include "closure_sim.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cxlgraph {
namespace {

// ------------------------------------ SwCache vs a textbook LRU oracle ----

/// Deliberately naive set-associative LRU: per set, a std::list ordered by
/// recency. Slow but self-evidently correct.
class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t num_sets, std::uint32_t ways)
      : sets_(num_sets), ways_(ways) {}

  bool access(std::uint64_t line, std::uint64_t set_index) {
    auto& set = sets_[set_index];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        set.push_front(line);
        return true;
      }
    }
    set.push_front(line);
    if (set.size() > ways_) set.pop_back();
    return false;
  }

 private:
  std::vector<std::list<std::uint64_t>> sets_;
  std::uint32_t ways_;
};

class CacheModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModelCheck, MatchesReferenceLruExactly) {
  cache::SwCacheParams params;
  params.capacity_bytes = 1 << 14;  // 256 lines
  params.line_bytes = 64;
  params.ways = 4;
  cache::SwCache cache(params);
  ReferenceLru reference(cache.num_sets(), cache.ways());

  util::Xoshiro256 rng(GetParam());
  for (int op = 0; op < 20'000; ++op) {
    // Skewed address stream: mostly a hot region, sometimes cold.
    const std::uint64_t line = rng.next_double() < 0.8
                                   ? rng.next_below(512)
                                   : rng.next_below(1 << 20);
    const std::uint64_t set = line & (cache.num_sets() - 1);
    const bool hit = cache.access_line(line);
    const bool ref_hit = reference.access(line, set);
    ASSERT_EQ(hit, ref_hit) << "op " << op << " line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------ DES ordering under fuzzing ----

TEST(SimulatorFuzz, TimeIsMonotoneAndAllEventsFire) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::ClosureSim sim;
    util::Xoshiro256 rng(seed);
    std::uint64_t fired = 0;
    std::uint64_t scheduled = 0;
    sim::SimTime last_seen = 0;

    // Events recursively schedule more events at random future offsets.
    std::function<void(int)> spawn = [&](int depth) {
      ++fired;
      EXPECT_GE(sim.now(), last_seen);
      last_seen = sim.now();
      if (depth <= 0) return;
      const int children = static_cast<int>(rng.next_below(3));
      for (int c = 0; c < children; ++c) {
        ++scheduled;
        sim.schedule_after(rng.next_below(1000),
                           [&spawn, depth] { spawn(depth - 1); });
      }
    };
    for (int roots = 0; roots < 50; ++roots) {
      ++scheduled;
      sim.schedule_at(rng.next_below(10'000),
                      [&spawn] { spawn(6); });
    }
    sim.run();
    EXPECT_EQ(fired, scheduled) << "seed " << seed;
  }
}

// ---------------------------------------------- RNG statistical sanity ----

TEST(RngStatistics, ChiSquaredUniformityOverBuckets) {
  util::Xoshiro256 rng(123);
  constexpr int kBuckets = 64;
  constexpr int kSamples = 64'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double diff = c - expected;
    chi2 += diff * diff / expected;
  }
  // 63 degrees of freedom: 99.9th percentile ~ 103. Deterministic seed, so
  // this is a regression check, not a flaky statistical test.
  EXPECT_LT(chi2, 103.0);
}

TEST(RngStatistics, NoShortCycles) {
  util::Xoshiro256 rng(7);
  std::unordered_map<std::uint64_t, int> seen;
  for (int i = 0; i < 100'000; ++i) {
    const auto v = rng();
    auto [it, inserted] = seen.emplace(v, i);
    ASSERT_TRUE(inserted) << "64-bit value repeated after "
                          << i - it->second << " steps";
  }
}

TEST(RngStatistics, SeedsDecorrelate) {
  // Adjacent seeds must not produce correlated streams (SplitMix64
  // expansion guarantees this); check the overlap of outputs is nil.
  util::Xoshiro256 a(1000);
  util::Xoshiro256 b(1001);
  std::unordered_map<std::uint64_t, bool> from_a;
  for (int i = 0; i < 10'000; ++i) from_a[a()] = true;
  int collisions = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (from_a.count(b())) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

}  // namespace
}  // namespace cxlgraph
