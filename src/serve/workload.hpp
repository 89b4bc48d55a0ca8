#pragma once
/// \file workload.hpp
/// Query streams for the multi-tenant serving layer.
///
/// A WorkloadSpec describes the analytics traffic a QueryServer admits: a
/// mix of query classes (algorithm x SLO x optional shard span), an
/// arrival process (open-loop Poisson or closed-loop clients), and one
/// seed. make_queries expands the spec into a concrete query stream in
/// which every field of query i is a pure function of (spec.seed, i) —
/// never of wall clock, thread count, or scheduling order — so a serve
/// simulation is exactly reproducible and per-query results can be
/// compared across offered loads.
///
/// Open-loop arrivals are generated scale-invariantly: each interarrival
/// gap is a unit-mean exponential drawn from the query's own seed and then
/// divided by offered_qps. Raising the offered load therefore only
/// compresses the *same* arrival sequence, which makes per-query latency
/// monotonically non-improving in load under work-conserving FIFO service
/// (Lindley's recursion) — the property serve_test pins.

#include <cstdint>
#include <vector>

#include "core/system_config.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/units.hpp"

namespace cxlgraph::serve {

enum class ArrivalProcess {
  /// Queries arrive on their own clock regardless of completions
  /// (Poisson stream at offered_qps); load past capacity queues or sheds.
  kOpenLoopPoisson,
  /// num_clients clients each keep one query outstanding and think for an
  /// exponential gap between completion and next issue (self-throttling).
  kClosedLoop,
};

std::string to_string(ArrivalProcess process);

/// One class of queries in the traffic mix.
struct QueryClass {
  core::Algorithm algorithm = core::Algorithm::kBfs;
  /// Relative share of the mix (normalized over classes; need not sum 1).
  double weight = 1.0;
  /// Per-query latency objective (arrival to completion).
  util::SimTime slo = util::ps_from_us(100'000.0);
  /// >= 2 routes the query through core::ClusterRuntime so it spans
  /// shards; its per-superstep profile then includes exchange phases.
  std::uint32_t shards = 1;
  partition::Strategy strategy = partition::Strategy::kVertexRange;
};

struct WorkloadSpec {
  ArrivalProcess process = ArrivalProcess::kOpenLoopPoisson;
  /// Open-loop arrival rate (queries per simulated second).
  double offered_qps = 200.0;
  /// Total queries in the stream (both processes).
  std::uint32_t num_queries = 64;
  /// Closed-loop only: concurrent clients (query i belongs to client
  /// i % num_clients, issued in per-client order).
  std::uint32_t num_clients = 4;
  /// Closed-loop only: mean think time between a client's completion and
  /// its next issue (exponential, per-query seeded).
  util::SimTime mean_think_time = util::ps_from_us(1'000.0);
  std::uint64_t seed = 42;
  /// Number of distinct traversal-source seeds queries draw from. 0 gives
  /// every query its own source; a small pool models the repeated
  /// queries real serving traffic is full of (and bounds the number of
  /// distinct profiles the server must build).
  std::uint32_t source_pool = 0;
  /// Empty uses one default QueryClass (BFS).
  std::vector<QueryClass> mix;
};

/// One query of the expanded stream.
struct Query {
  std::uint64_t id = 0;
  std::uint32_t class_index = 0;
  /// Open-loop: absolute arrival time. Closed-loop: 0 (the server assigns
  /// arrivals as clients complete).
  util::SimTime arrival = 0;
  /// Closed-loop: exponential think gap preceding this query's issue.
  util::SimTime think_gap = 0;
  /// Per-query seed for the traversal source pick, derived from
  /// (spec.seed, id) only.
  std::uint64_t source_seed = 0;
  util::SimTime slo = 0;
};

/// The spec's effective mix: spec.mix, or the one default class when
/// empty. Validates weights and shard counts.
std::vector<QueryClass> resolve_mix(const WorkloadSpec& spec);

/// Expands the spec into its deterministic query stream. Throws
/// std::invalid_argument for zero/negative rates, empty closed-loop client
/// sets, non-positive mix weights, or an arrival gap, think gap or arrival
/// clock too long for 64-bit picoseconds (a rate so low its gaps do not
/// fit).
std::vector<Query> make_queries(const WorkloadSpec& spec);

}  // namespace cxlgraph::serve
