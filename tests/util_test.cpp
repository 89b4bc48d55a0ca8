#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <sstream>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cxlgraph::util {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMix64DiffersAcrossSeeds) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministic) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8'000; ++i) ++seen[rng.next_below(8)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsNearHalf) {
  Xoshiro256 rng(5);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextInInclusiveBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

// -------------------------------------------------------------- stats ----

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Log2Histogram, BucketsSmallValues) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.count(), 4u);
  ASSERT_GE(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);  // {0, 1}
  EXPECT_EQ(h.buckets()[1], 1u);  // {2}
  EXPECT_EQ(h.buckets()[2], 1u);  // {3, 4}
}

TEST(Log2Histogram, QuantileMonotone) {
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.add(v);
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_GT(h.quantile(0.99), 500.0);
}

TEST(Percentile, ExactValues) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(PercentileSummary, EmptyIsZero) {
  const PercentileSummary s = summarize_percentiles({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(PercentileSummary, KnownValues) {
  // 1..100: linear-interpolated percentiles over the sorted samples.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const PercentileSummary s = summarize_percentiles(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.p95, 95.05);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
  EXPECT_DOUBLE_EQ(s.p50, percentile(v, 50));
  EXPECT_DOUBLE_EQ(s.p95, percentile(v, 95));
  EXPECT_DOUBLE_EQ(s.p99, percentile(v, 99));
}

TEST(PercentileSummary, OrderInvariantAndMonotone) {
  std::vector<double> v = {9, 1, 7, 3, 5, 8, 2, 6, 4, 0};
  const PercentileSummary s = summarize_percentiles(v);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  std::reverse(v.begin(), v.end());
  const PercentileSummary r = summarize_percentiles(v);
  EXPECT_DOUBLE_EQ(s.p95, r.p95);
}

/// The comparison-sort reference the radix-sorted summaries must equal:
/// std::sort, the mean summed in sorted order, linear-interpolated ranks.
double reference_rank(const std::vector<double>& sorted, double pct) {
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

PercentileSummary reference_summary(std::vector<double> v) {
  PercentileSummary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.count = v.size();
  double sum = 0.0;
  for (const double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  s.min = v.front();
  s.max = v.back();
  s.p50 = reference_rank(v, 50.0);
  s.p95 = reference_rank(v, 95.0);
  s.p99 = reference_rank(v, 99.0);
  return s;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// A seeded adversarial sample: negatives, duplicates, +-inf, subnormals,
/// +-DBL_MAX, and values sharing their high bytes (so the radix sort
/// skips digits). No NaN and no -0.0, where a radix and a comparison sort
/// may legitimately differ.
std::vector<double> radix_sample(std::size_t n, std::uint64_t seed) {
  constexpr double kSpecial[] = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      4.9e-320,
      -2.2e-310,
      0.0,
      1.0};
  Xoshiro256 rng(seed);
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.next_below(6)) {
      case 0:
        v.push_back(kSpecial[rng.next_below(std::size(kSpecial))]);
        break;
      case 1:  // shares every byte but the lowest few with 1.0
        v.push_back(1.0 + static_cast<double>(rng.next_below(4096)) *
                              std::numeric_limits<double>::epsilon());
        break;
      case 2:
        v.push_back(v.empty() ? 2.0 : v[rng.next_below(v.size())]);
        break;
      case 3:
        v.push_back(-1e3 * rng.next_double() - 1.0);
        break;
      case 4:
        v.push_back(std::ldexp(rng.next_double() + 0.5,
                               static_cast<int>(rng.next_below(2000)) - 1000));
        break;
      default:
        v.push_back(1e6 * rng.next_double());
        break;
    }
  }
  return v;
}

TEST(PercentileSummary, RadixSortEqualsComparisonSortBitForBit) {
  std::vector<std::vector<double>> cases;
  std::uint64_t seed = 1;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{255},
        std::size_t{256}, std::size_t{257}, std::size_t{100'000}}) {
    for (int rep = 0; rep < 3; ++rep) cases.push_back(radix_sample(n, seed++));
  }
  cases.push_back(std::vector<double>(300, 42.5));  // every digit shared
  std::vector<double> low_bytes;  // only the two lowest digits differ
  Xoshiro256 rng(99);
  for (int i = 0; i < 5000; ++i) {
    low_bytes.push_back(1.0 + static_cast<double>(rng.next_below(65536)) *
                                  std::numeric_limits<double>::epsilon());
  }
  cases.push_back(low_bytes);
  for (const std::vector<double>& v : cases) {
    const PercentileSummary got = summarize_percentiles(v);
    const PercentileSummary want = reference_summary(v);
    EXPECT_EQ(got.count, want.count);
    const std::pair<double, double> fields[] = {
        {got.mean, want.mean}, {got.min, want.min}, {got.max, want.max},
        {got.p50, want.p50},   {got.p95, want.p95}, {got.p99, want.p99}};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
      EXPECT_TRUE(same_bits(fields[f].first, fields[f].second))
          << "field " << f << " of an n=" << v.size() << " sample";
    }
    if (v.empty()) continue;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double pct : {0.0, 1.0, 37.5, 50.0, 99.9, 100.0}) {
      EXPECT_TRUE(same_bits(percentile(v, pct), reference_rank(sorted, pct)))
          << "percentile " << pct << " of an n=" << v.size() << " sample";
    }
  }
}

TEST(StreamingQuantile, ExactForSmallSamples) {
  StreamingQuantile q(0.5);
  EXPECT_EQ(q.estimate(), 0.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 2.0);  // exact median of {1,2,3}
}

TEST(StreamingQuantile, TracksExactPercentilesOnRandomStream) {
  Xoshiro256 rng(2024);
  StreamingQuantile p50(0.50), p95(0.95), p99(0.99);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    // Heavy-ish tail: squared uniform keeps the P2 markers honest.
    const double u = rng.next_double();
    const double x = u * u * 1000.0;
    samples.push_back(x);
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  const PercentileSummary exact = summarize_percentiles(samples);
  EXPECT_NEAR(p50.estimate(), exact.p50, 0.05 * exact.p50 + 1.0);
  EXPECT_NEAR(p95.estimate(), exact.p95, 0.05 * exact.p95 + 1.0);
  EXPECT_NEAR(p99.estimate(), exact.p99, 0.05 * exact.p99 + 1.0);
  EXPECT_EQ(p99.count(), 20'000u);
}

TEST(StreamingQuantile, DeterministicInInsertionSequence) {
  StreamingQuantile a(0.95), b(0.95);
  Xoshiro256 r1(7), r2(7);
  for (int i = 0; i < 1000; ++i) {
    a.add(r1.next_double());
    b.add(r2.next_double());
  }
  EXPECT_EQ(a.estimate(), b.estimate());
}

// -------------------------------------------------------------- units ----

TEST(Units, TimeConversionsRoundTrip) {
  EXPECT_EQ(ps_from_ns(1.0), kPsPerNs);
  EXPECT_EQ(ps_from_us(1.0), kPsPerUs);
  EXPECT_DOUBLE_EQ(us_from_ps(ps_from_us(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(ns_from_ps(ps_from_ns(17.5)), 17.5);
}

TEST(Units, CheckedConversionMatchesOrRejects) {
  for (const double us : {0.0, -0.0, 1e-9, 0.5, 3.25, 1'000.0, 1.8e13}) {
    EXPECT_EQ(checked_ps_from_us(us, "t"), ps_from_us(us)) << us;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double us :
       {-1.0, -1e-12, std::nan(""), kInf, -kInf, 1.9e13, 1e300}) {
    EXPECT_THROW(checked_ps_from_us(us, "t"), std::invalid_argument) << us;
  }
  for (const double sec : {0.0, 1e-12, 0.25, 3.0, 1.8e7}) {
    EXPECT_EQ(checked_ps_from_sec(sec, "t"), ps_from_sec(sec)) << sec;
  }
  for (const double sec : {-1.0, std::nan(""), kInf, -kInf, 1.9e7}) {
    EXPECT_THROW(checked_ps_from_sec(sec, "t"), std::invalid_argument) << sec;
  }
}

// The serving layer stretches quanta and sums their delays through these:
// a result that fits is the unchecked arithmetic's, anything else throws.
TEST(Units, CheckedStretchAndAddMatchOrThrow) {
  for (const double factor : {0.0, 0.5, 1.0, 2.5, 1e6}) {
    for (const SimTime ps : {SimTime{0}, SimTime{1}, SimTime{123'456'789}}) {
      EXPECT_EQ(checked_stretch_ps(ps, factor, "q"),
                static_cast<SimTime>(static_cast<double>(ps) * factor + 0.5))
          << ps << " x " << factor;
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {1e300, kInf, std::nan(""), -1.0}) {
    EXPECT_THROW(checked_stretch_ps(1'000, bad, "q"), std::overflow_error)
        << bad;
  }
  // 2^63 ps doubled reaches 2^64 ps, the first value that does not fit.
  EXPECT_THROW(checked_stretch_ps(SimTime{1} << 63, 2.0, "q"),
               std::overflow_error);
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  EXPECT_EQ(checked_add_ps(kMax - 1, 1, "sum"), kMax);
  EXPECT_EQ(checked_add_ps(0, 0, "sum"), SimTime{0});
  EXPECT_THROW(checked_add_ps(kMax, 1, "sum"), std::overflow_error);
  EXPECT_THROW(checked_add_ps(1, kMax, "sum"), std::overflow_error);
}

TEST(Units, PsPerByteMatchesBandwidth) {
  // 24,000 MB/s -> 1 byte every ~41.67 ps.
  EXPECT_NEAR(ps_per_byte(24'000.0), 41.6667, 0.001);
  // Moving W bytes in one second: throughput round-trips.
  EXPECT_NEAR(mbps_from(24'000'000'000ULL, kPsPerSec), 24'000.0, 1e-6);
}

TEST(Units, CheckedRatesMatchOrRejectDurationsThatDoNotFit) {
  // Accepted rates give the unchecked arithmetic's values exactly.
  for (const double mbps : {24'000.0, 5'700.0, 3'200.0, 1.0, 2.4e-4}) {
    EXPECT_EQ(checked_ps_per_byte(mbps, "bw"), ps_per_byte(mbps)) << mbps;
  }
  for (const double iops : {1.0e6, 0.3e6, 2.5e6, 1.0, 1e-7}) {
    EXPECT_EQ(checked_interval_ps(iops, "iops"),
              static_cast<SimTime>(static_cast<double>(kPsPerSec) / iops +
                                   0.5))
        << iops;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Past ~2.33e-4 MB/s a 2^32 - 1 byte transfer overflows 64-bit
  // picoseconds; past ~5.4e-8 IOPS one interval does.
  for (const double bad : {0.0, -1.0, std::nan(""), kInf, 2.3e-4, 1e-9}) {
    EXPECT_THROW(checked_ps_per_byte(bad, "bw"), std::invalid_argument)
        << bad;
  }
  for (const double bad : {0.0, -1.0, std::nan(""), kInf, 5e-8, 1e-9}) {
    EXPECT_THROW(checked_interval_ps(bad, "iops"), std::invalid_argument)
        << bad;
  }
}

TEST(Units, FormatBytesPicksUnit) {
  EXPECT_EQ(format_bytes(std::uint64_t{512}), "512 B");
  EXPECT_EQ(format_bytes(std::uint64_t{4'190'000}), "4.19 MB");
  EXPECT_EQ(format_bytes(std::uint64_t{35'200'000'000ULL}), "35.20 GB");
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignsColumnsAndCounts) {
  TablePrinter t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsWrongCellCount) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesSpecialCells) {
  TablePrinter t({"x"});
  t.add_row({"has,comma"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
}

TEST(Table, FmtCountInsertsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1'000), "1,000");
  EXPECT_EQ(fmt_count(4'200'000'000ULL), "4,200,000,000");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

// ---------------------------------------------------------------- cli ----

TEST(Cli, ParsesKeyValueForms) {
  CliParser cli;
  cli.add_option("scale", "log2 size", "16");
  cli.add_option("name", "dataset", "urand");
  const char* argv[] = {"prog", "--scale=20", "--name", "kron"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("scale"), 20);
  EXPECT_EQ(cli.get("name"), "kron");
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli;
  cli.add_option("scale", "log2 size", "16");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("scale"), 16);
}

TEST(Cli, FlagsToggle) {
  CliParser cli;
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli;
  cli.add_option("x", "", "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, UnsignedGetterRangeChecksInsteadOfWrapping) {
  CliParser cli;
  cli.add_option("n", "count", "4");
  const char* defaults[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, defaults));
  EXPECT_EQ(cli.get_uint("n"), 4u);
  EXPECT_EQ(cli.get_uint("n", 4, 4), 4u);
  EXPECT_THROW(cli.get_uint("n", 5), std::invalid_argument);
  EXPECT_THROW(cli.get_uint("n", 0, 3), std::invalid_argument);

  for (const char* bad :
       {"--n=-1", "--n=4294967296", "--n=3x", "--n=", "--n=x",
        "--n=99999999999999999999", "--n= 4", "--n=+4", "--n=4.0",
        "--n=1e3", "--n=0x4"}) {
    CliParser c;
    c.add_option("n", "count", "4");
    const char* argv[] = {"prog", bad};
    ASSERT_TRUE(c.parse(2, argv));
    EXPECT_THROW(c.get_uint("n"), std::invalid_argument) << bad;
  }
  CliParser top;
  top.add_option("n", "count", "4");
  const char* argv[] = {"prog", "--n=4294967295"};
  ASSERT_TRUE(top.parse(2, argv));
  EXPECT_EQ(top.get_uint("n"), 4294967295u);
}

TEST(Cli, NumbersAreReadWhole) {
  EXPECT_DOUBLE_EQ(parse_double("1.5", "x"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e-3", "x"), -2e-3);
  EXPECT_DOUBLE_EQ(parse_double("2000", "x"), 2000.0);
  EXPECT_TRUE(std::isinf(parse_double("inf", "x")));
  for (const char* bad :
       {"", "1.5x", "42abc", "1e999", "-1e999", "x", " 1", "1 ", "1,5",
        "0x10"}) {
    try {
      parse_double(bad, "--added-us");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--added-us"), std::string::npos)
          << bad;
    }
  }

  for (const char* bad : {"--added-us=1.5x", "--added-us=1e999",
                          "--added-us=", "--added-us=nine"}) {
    CliParser c;
    c.add_option("added-us", "latency", "0");
    const char* argv[] = {"prog", bad};
    ASSERT_TRUE(c.parse(2, argv));
    EXPECT_THROW(c.get_double("added-us"), std::invalid_argument) << bad;
  }
  for (const char* bad : {"--seed=42abc", "--seed=1e3", "--seed=4.0",
                          "--seed=", "--seed=99999999999999999999"}) {
    CliParser c;
    c.add_option("seed", "seed", "42");
    const char* argv[] = {"prog", bad};
    ASSERT_TRUE(c.parse(2, argv));
    EXPECT_THROW(c.get_int("seed"), std::invalid_argument) << bad;
  }
  CliParser c;
  c.add_option("seed", "seed", "-7");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(c.parse(1, argv));
  EXPECT_EQ(c.get_int("seed"), -7);
}

TEST(Cli, PositionalArgumentsCollected) {
  CliParser cli;
  const char* argv[] = {"prog", "alpha", "beta"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "alpha");
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

}  // namespace
}  // namespace cxlgraph::util
