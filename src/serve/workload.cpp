#include "serve/workload.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace cxlgraph::serve {

namespace {

/// Unit-mean exponential from a uniform; clamped away from u == 0 so the
/// gap stays finite.
double unit_exponential(double u) {
  return -std::log(std::max(u, 1e-12));
}

/// A gap in picoseconds, truncated (the rounding every serve golden
/// pins) once it is known to be a value SimTime holds: a NaN or
/// out-of-range double cast to an unsigned integer is undefined.
util::SimTime checked_gap_ps(double ps, const char* what) {
  // 2^64 ps, exactly representable: the first value SimTime cannot hold.
  constexpr double kSimTimeLimit = 18446744073709551616.0;
  if (!(ps >= 0.0 && ps < kSimTimeLimit)) {
    throw std::invalid_argument(std::string("WorkloadSpec: ") + what +
                                " does not fit in 64-bit picoseconds");
  }
  return static_cast<util::SimTime>(ps);
}

}  // namespace

std::string to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kOpenLoopPoisson:
      return "open-loop-poisson";
    case ArrivalProcess::kClosedLoop:
      return "closed-loop";
  }
  return "unknown";
}

std::vector<QueryClass> resolve_mix(const WorkloadSpec& spec) {
  std::vector<QueryClass> mix =
      spec.mix.empty() ? std::vector<QueryClass>{QueryClass{}} : spec.mix;
  for (const QueryClass& c : mix) {
    if (!(c.weight > 0.0)) {
      throw std::invalid_argument(
          "WorkloadSpec: mix weights must be > 0");
    }
    if (c.shards == 0) {
      throw std::invalid_argument(
          "WorkloadSpec: class shards must be >= 1");
    }
  }
  return mix;
}

std::vector<Query> make_queries(const WorkloadSpec& spec) {
  if (spec.process == ArrivalProcess::kOpenLoopPoisson &&
      !(spec.offered_qps > 0.0)) {
    throw std::invalid_argument("WorkloadSpec: offered_qps must be > 0");
  }
  if (spec.process == ArrivalProcess::kClosedLoop &&
      spec.num_clients == 0) {
    throw std::invalid_argument("WorkloadSpec: num_clients must be >= 1");
  }
  const std::vector<QueryClass> mix = resolve_mix(spec);
  double total_weight = 0.0;
  for (const QueryClass& c : mix) total_weight += c.weight;

  std::vector<Query> queries;
  queries.reserve(spec.num_queries);
  util::SimTime clock = 0;
  for (std::uint64_t i = 0; i < spec.num_queries; ++i) {
    // Every stochastic choice for query i comes from this stream alone,
    // so the query is identical no matter what ran before it.
    util::SplitMix64 sm(spec.seed ^ (0x5e7ee5ULL + i * 0x9e3779b97f4a7c15ULL));
    util::Xoshiro256 rng(sm.next());

    Query q;
    q.id = i;
    // Class pick by cumulative weight.
    const double roll = rng.next_double() * total_weight;
    double cumulative = 0.0;
    for (std::uint32_t c = 0; c < mix.size(); ++c) {
      cumulative += mix[c].weight;
      if (roll < cumulative || c + 1 == mix.size()) {
        q.class_index = c;
        break;
      }
    }
    q.slo = mix[q.class_index].slo;
    if (spec.source_pool > 0) {
      const std::uint64_t pool_index = rng.next_below(spec.source_pool);
      q.source_seed =
          util::SplitMix64(spec.seed ^ (0x50a7ULL + pool_index)).next();
    } else {
      q.source_seed = rng();
    }

    const double gap = unit_exponential(rng.next_double());
    if (spec.process == ArrivalProcess::kOpenLoopPoisson) {
      // gap/qps in seconds -> ps. Monotone non-increasing in offered_qps,
      // so higher load only compresses the same sequence.
      const util::SimTime step = checked_gap_ps(
          gap / spec.offered_qps * static_cast<double>(util::kPsPerSec),
          "an arrival gap (offered_qps too low)");
      if (step > std::numeric_limits<util::SimTime>::max() - clock) {
        throw std::invalid_argument(
            "WorkloadSpec: the arrival clock overflows 64-bit picoseconds "
            "(offered_qps too low for num_queries)");
      }
      clock += step;
      q.arrival = clock;
    } else {
      q.think_gap = checked_gap_ps(
          gap * static_cast<double>(spec.mean_think_time), "a think gap");
    }
    queries.push_back(q);
  }
  return queries;
}

}  // namespace cxlgraph::serve
