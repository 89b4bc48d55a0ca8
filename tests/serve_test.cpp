/// serve::QueryServer — multi-tenant serving over one shared stack.
///
/// The load-bearing guarantees:
///  * a single admitted query on an idle server reproduces the
///    ExternalGraphRuntime report bit-for-bit (the serving layer is a
///    pure extension of the single-query path);
///  * results are deterministic in (graph, request) — across repeated
///    runs and across profiling thread counts;
///  * per-query latency is monotonically non-improving as offered load
///    rises (same arrival sequence, compressed), and p50 <= p95 <= p99;
///  * byte conservation: the bytes accounted quantum-by-quantum at the
///    shared link equal the sum of completed queries' isolated-run
///    fetched bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "graph/builder.hpp"
#include "graph/generate.hpp"
#include "golden_suite.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 11;

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

serve::ServeRequest mixed_request(double offered_qps,
                                  std::uint32_t num_queries) {
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.offered_qps = offered_qps;
  req.workload.num_queries = num_queries;
  req.workload.source_pool = 4;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 2.0;
  bfs.slo = util::ps_from_us(5'000.0);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = util::ps_from_us(20'000.0);
  req.workload.mix = {bfs, scan};
  return req;
}

TEST(QueryServer, SingleQueryIdleServerMatchesSingleRuntime) {
  const graph::CsrGraph g = test_graph();
  const core::SystemConfig cfg = core::table3_system();

  for (const core::BackendKind backend :
       {core::BackendKind::kHostDram, core::BackendKind::kCxl}) {
    serve::ServeRequest req;
    req.base.backend = backend;
    req.workload.seed = kSeed;
    req.workload.num_queries = 1;
    req.workload.offered_qps = 100.0;
    serve::QueryServer server(cfg);
    const serve::ServeReport r = server.serve(g, req);

    ASSERT_EQ(r.completed, 1u);
    ASSERT_EQ(r.profiles.size(), 1u);
    const serve::QueryRecord& record = r.queries.front();
    EXPECT_FALSE(record.shed);
    EXPECT_EQ(record.queue_ps, 0u);

    // The expected isolated run: same source derivation as the server's.
    const std::vector<serve::Query> queries =
        serve::make_queries(req.workload);
    core::RunRequest expected_req;
    expected_req.backend = backend;
    expected_req.source =
        algo::pick_source(g, queries.front().source_seed);
    core::ExternalGraphRuntime single(cfg);
    const core::RunReport expected = single.run(g, expected_req);

    EXPECT_EQ(r.profiles.front().report, expected);

    // The served latency is exactly the isolated runtime: the per-step
    // durations sum to the engine's total time (integer picoseconds).
    EXPECT_EQ(util::sec_from_ps(record.service_ps), expected.runtime_sec);
    EXPECT_EQ(r.latency_us.p50, r.latency_us.p99);
    EXPECT_EQ(r.link_bytes, expected.fetched_bytes);
    EXPECT_TRUE(r.conservation_ok());
  }
}

// Every query of a base request that names its source runs from it, so
// profiling needs no edges; without a source each query's pick throws.
TEST(QueryServer, ExplicitSourceProfilesAnEdgelessGraph) {
  const graph::CsrGraph g = graph::build_csr(4, {});
  core::RunRequest base;
  base.source = 1;
  serve::WorkloadSpec workload;
  workload.num_queries = 3;
  serve::QueryServer server(core::table3_system(), /*jobs=*/1);
  const serve::ProfiledWorkload profiled =
      server.profile_workload(g, base, workload);
  ASSERT_EQ(profiled.profiles.size(), 1u);
  EXPECT_EQ(profiled.profiles.front().report.source, 1u);
  EXPECT_EQ(profiled.query_profile, std::vector<std::size_t>(3, 0));

  base.source.reset();
  try {
    server.profile_workload(g, base, workload);
    ADD_FAILURE() << "a picked source on an edgeless graph must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "pick_source: graph has no edges");
  }
}

TEST(QueryServer, DeterministicAcrossJobsAndRepeatedRuns) {
  const graph::CsrGraph g = test_graph();
  const serve::ServeRequest req = mixed_request(2000.0, 24);

  serve::QueryServer serial(core::table3_system(), /*jobs=*/1);
  const serve::ServeReport first = serial.serve(g, req);
  // Repeat on the same server: profile cache warm, results identical.
  const serve::ServeReport repeat = serial.serve(g, req);
  EXPECT_EQ(first, repeat);

  // Fresh server, parallel profiling: still identical.
  serve::QueryServer parallel(core::table3_system(), /*jobs=*/4);
  const serve::ServeReport fanned = parallel.serve(g, req);
  EXPECT_EQ(first, fanned);
}

TEST(QueryServer, LatencyMonotoneNonImprovingInOfferedLoad) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());

  std::vector<std::vector<util::SimTime>> latencies;
  for (const double qps : {200.0, 2000.0, 20000.0}) {
    const serve::ServeRequest req = mixed_request(qps, 24);
    const serve::ServeReport r = server.serve(g, req);
    ASSERT_EQ(r.completed, 24u);
    EXPECT_LE(r.latency_us.p50, r.latency_us.p95);
    EXPECT_LE(r.latency_us.p95, r.latency_us.p99);
    EXPECT_TRUE(r.conservation_ok());
    std::vector<util::SimTime> per_query;
    for (const serve::QueryRecord& rec : r.queries) {
      per_query.push_back(rec.completion - rec.arrival);
    }
    latencies.push_back(std::move(per_query));
  }
  // FIFO + the same arrival sequence compressed: every query's latency is
  // non-decreasing in offered load (Lindley's recursion).
  for (std::size_t level = 1; level < latencies.size(); ++level) {
    for (std::size_t i = 0; i < latencies[level].size(); ++i) {
      EXPECT_GE(latencies[level][i], latencies[level - 1][i])
          << "query " << i << " improved at load level " << level;
    }
  }
}

TEST(QueryServer, ByteConservationAcrossPoliciesAndLoads) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  for (const serve::SchedulingPolicy policy : serve::all_policies()) {
    for (const double qps : {500.0, 20000.0}) {
      serve::ServeRequest req = mixed_request(qps, 24);
      req.config.policy = policy;
      req.config.quantum_supersteps = 2;
      const serve::ServeReport r = server.serve(g, req);
      EXPECT_TRUE(r.conservation_ok())
          << serve::to_string(policy) << " at " << qps << " qps: link "
          << r.link_bytes << " != queries " << r.query_bytes;
      // And the shared-link bytes match the profiles' own totals.
      std::uint64_t expected = 0;
      for (const serve::QueryRecord& rec : r.queries) {
        if (!rec.shed) {
          expected += r.profiles[rec.profile_index].service_bytes;
        }
      }
      EXPECT_EQ(r.link_bytes, expected);
    }
  }
}

// Property: the terminal dispositions partition the stream exactly —
// every offered query ends completed, shed, or failed, and admitted work
// ends completed or failed. Checked across policies x loads on the solo
// path (where failed is structurally zero) and on the fleet path under
// an active crash-and-I/O fault plan (where all three are live).
TEST(QueryServer, TerminalDispositionsPartitionAcrossPoliciesAndLoads) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  for (const serve::SchedulingPolicy policy : serve::all_policies()) {
    for (const double qps : {500.0, 20000.0}) {
      serve::ServeRequest req = mixed_request(qps, 24);
      req.config.policy = policy;
      req.config.max_waiting = 3;  // force queue shedding at high load
      const serve::ServeReport r = server.serve(g, req);
      EXPECT_EQ(r.completed + r.shed + r.failed, r.offered)
          << serve::to_string(policy) << " at " << qps << " qps";
      EXPECT_EQ(r.completed + r.failed, r.admitted);
      EXPECT_EQ(r.failed, 0u);  // no fault plan on the solo path
    }
  }

  serve::FleetServer fleet(core::table3_system());
  for (const serve::SchedulingPolicy policy : serve::all_policies()) {
    for (const double qps : {4'000.0, 24'000.0}) {
      serve::FleetRequest freq;
      freq.base.backend = core::BackendKind::kCxl;
      freq.workload = mixed_request(qps, 32).workload;
      freq.fleet.replicas = 2;
      freq.fleet.serve.policy = policy;
      freq.fleet.serve.max_waiting = 4;
      freq.fleet.faults.seed = 77;
      freq.fleet.faults.horizon_sec =
          16.0 / qps;  // first half of the arrival window
      freq.fleet.faults.crashes = 2;
      freq.fleet.faults.restart_sec = 0.0;  // permanent: failures likely
      freq.fleet.faults.max_query_retries = 1;
      freq.fleet.faults.io_bursts = 1;
      freq.fleet.faults.io_burst_sec = 4.0 / qps;
      freq.fleet.faults.io_error_rate = 0.3;
      const serve::FleetReport fr = fleet.serve(g, freq);
      const serve::ServeReport& s = fr.serve;
      EXPECT_EQ(s.completed + s.shed + s.failed, s.offered)
          << serve::to_string(policy) << " at " << qps << " qps (fleet)";
      EXPECT_EQ(s.completed + s.failed, s.admitted);
      EXPECT_TRUE(s.conservation_ok());
    }
  }
}

TEST(QueryServer, AdmissionControllerShedsPastQueueCap) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  serve::ServeRequest req = mixed_request(50000.0, 32);
  req.config.max_waiting = 2;
  const serve::ServeReport r = server.serve(g, req);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.completed + r.shed, r.offered);
  EXPECT_EQ(r.admitted + r.shed, r.offered);
  EXPECT_TRUE(r.conservation_ok());
  for (const serve::QueryRecord& rec : r.queries) {
    if (rec.shed) {
      EXPECT_EQ(rec.service_ps, 0u);
      EXPECT_EQ(rec.service_bytes, 0u);
    }
  }
}

TEST(QueryServer, FifoCompletesInArrivalOrderRoundRobinInterleaves) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req = mixed_request(20000.0, 24);
  serve::QueryServer server(core::table3_system());
  const serve::ServeReport fifo = server.serve(g, req);

  // FIFO runs to completion in arrival order: completions are ordered
  // like arrivals (arrivals are strictly increasing by construction).
  for (std::size_t i = 1; i < fifo.queries.size(); ++i) {
    EXPECT_LE(fifo.queries[i - 1].completion, fifo.queries[i].completion);
  }

  // Round-robin with a one-superstep quantum interleaves: under heavy
  // load with mixed service demands some later-arriving (shorter) query
  // overtakes an earlier (longer) one. Deterministic, so this either
  // always holds for this seed or never does.
  req.config.policy = serve::SchedulingPolicy::kRoundRobin;
  req.config.quantum_supersteps = 1;
  const serve::ServeReport rr = server.serve(g, req);
  bool overtaken = false;
  for (std::size_t i = 1; i < rr.queries.size() && !overtaken; ++i) {
    overtaken = rr.queries[i].completion < rr.queries[i - 1].completion;
  }
  EXPECT_TRUE(overtaken);
  // Work conservation: both policies move the same bytes.
  EXPECT_EQ(fifo.link_bytes, rr.link_bytes);
}

TEST(QueryServer, ClosedLoopCompletesAllQueriesWithoutShedding) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req = mixed_request(0.0, 24);
  req.workload.process = serve::ArrivalProcess::kClosedLoop;
  req.workload.num_clients = 3;
  req.workload.mean_think_time = util::ps_from_us(100.0);
  req.workload.offered_qps = 1.0;  // unused in closed loop
  serve::QueryServer server(core::table3_system());
  const serve::ServeReport r = server.serve(g, req);
  EXPECT_EQ(r.completed, 24u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_TRUE(r.conservation_ok());
  // With 3 clients at most 3 queries can be admitted-but-unfinished at
  // any time; waiting never exceeds clients - 1... which admission with
  // an unbounded queue trivially satisfies; assert arrivals are spread
  // (not all at 0) and strictly increasing per client chain.
  for (std::uint32_t c = 0; c < 3; ++c) {
    util::SimTime last = 0;
    for (std::size_t i = c; i < r.queries.size(); i += 3) {
      EXPECT_GT(r.queries[i].arrival, last);
      last = r.queries[i].arrival;
    }
  }
}

TEST(QueryServer, ShardSpanningQueriesRouteThroughCluster) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.num_queries = 6;
  req.workload.offered_qps = 1000.0;
  req.workload.source_pool = 2;
  serve::QueryClass spanning;
  spanning.algorithm = core::Algorithm::kBfs;
  spanning.shards = 4;
  spanning.strategy = partition::Strategy::kDegreeBalanced;
  spanning.slo = util::ps_from_us(50'000.0);
  req.workload.mix = {spanning};

  serve::QueryServer server(core::table3_system());
  const serve::ServeReport r = server.serve(g, req);
  EXPECT_EQ(r.completed, 6u);
  EXPECT_TRUE(r.conservation_ok());
  for (const serve::QueryProfile& p : r.profiles) {
    EXPECT_EQ(p.shards, 4u);
    EXPECT_GT(p.exchange_bytes, 0u);
    // Cluster-composed service time covers at least the compute phases.
    EXPECT_GT(p.service_ps, 0u);
    EXPECT_EQ(p.step_ps.size(), p.report.steps);
    EXPECT_EQ(p.step_bytes.size(), p.report.steps);
  }
}

// ---------------------------------------------------- identical queries ----

/// A saturating stream of *identical* queries (one class, one source).
serve::ServeRequest identical_request(double offered_qps,
                                      std::uint32_t num_queries) {
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.offered_qps = offered_qps;
  req.workload.num_queries = num_queries;
  req.workload.source_pool = 1;  // every query hits the same profile
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.slo = util::ps_from_us(5'000.0);
  req.workload.mix = {bfs};
  return req;
}

// -------------------------------------------------------- profile cache ----

TEST(QueryServer, ProfileCacheComputesEachComputationOnce) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req = mixed_request(1.0e5, 32);
  req.workload.source_pool = 6;  // several distinct profiles

  serve::QueryServer server(core::table3_system());
  const serve::ServeReport a = server.serve(g, req);
  // The cache computes each distinct computation once: one replay per BFS
  // source, one PageRank scan for all of its sources (the scan never
  // reads the source). That is fewer runs than slots.
  std::set<graph::VertexId> bfs_sources;
  for (const serve::QueryProfile& p : a.profiles) {
    if (req.workload.mix[p.class_index].algorithm == core::Algorithm::kBfs) {
      bfs_sources.insert(p.source);
    }
  }
  EXPECT_EQ(server.profiles_computed(), bfs_sources.size() + 1);
  EXPECT_LT(server.profiles_computed(), a.profiles.size());
  EXPECT_EQ(server.profile_cache_size(), server.profiles_computed());

  // A repeat serve hits the cache fully: same results, nothing computed.
  const std::uint64_t before = server.profiles_computed();
  EXPECT_EQ(server.serve(g, req), a);
  EXPECT_EQ(server.profiles_computed(), before);
}

// The cache follows the graph's identity, not its address: a copy reuses
// every profile, and a graph reassigned in place to other contents of the
// same shape re-profiles and serves what a fresh server serves.
TEST(QueryServer, ProfileCacheFollowsTheGraphIdentity) {
  graph::CsrGraph g = test_graph();
  const serve::ServeRequest req = mixed_request(2000.0, 24);
  serve::QueryServer server(core::table3_system());
  const serve::ServeReport first = server.serve(g, req);
  const std::uint64_t profiled = server.profiles_computed();
  ASSERT_GT(profiled, 0u);

  const graph::CsrGraph copy = g;
  EXPECT_EQ(server.serve(copy, req), first);
  EXPECT_EQ(server.profiles_computed(), profiled);

  const graph::CsrGraph* const address = &g;
  const std::uint64_t vertices = g.num_vertices();
  graph::GeneratorOptions opts;
  opts.seed = kSeed + 1;
  opts.max_weight = 63;
  g = graph::generate_uniform(1 << 10, 8.0, opts);
  ASSERT_EQ(&g, address);
  ASSERT_EQ(g.num_vertices(), vertices);

  const serve::ServeReport reassigned = server.serve(g, req);
  EXPECT_GT(server.profiles_computed(), profiled);
  serve::QueryServer fresh(core::table3_system());
  EXPECT_EQ(reassigned, fresh.serve(g, req));
  EXPECT_NE(reassigned, first);
}

// Source-free classes (CC, PageRank scan) share one replay across their
// sources, shard-spanning classes share one partition per layout. Every
// slot must still equal an independent run at that slot's own source.
TEST(QueryServer, SharedProfilesMatchIndependentRunsAtTheirOwnSource) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.num_queries = 24;
  req.workload.offered_qps = 1000.0;
  req.workload.source_pool = 0;  // every query draws its own source
  serve::QueryClass cc;
  cc.algorithm = core::Algorithm::kCc;
  cc.shards = 2;
  cc.strategy = partition::Strategy::kDegreeBalanced;
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.shards = 2;
  bfs.strategy = partition::Strategy::kDegreeBalanced;
  req.workload.mix = {cc, scan, bfs};

  const core::SystemConfig cfg = core::table3_system();
  serve::QueryServer server(cfg, /*jobs=*/2);
  const serve::ServeReport r = server.serve(g, req);
  EXPECT_TRUE(r.conservation_ok());

  core::ExternalGraphRuntime single(cfg);
  core::ClusterRuntime cluster(cfg, /*jobs=*/1);
  std::vector<std::set<graph::VertexId>> sources(req.workload.mix.size());
  for (const serve::QueryProfile& p : r.profiles) {
    const serve::QueryClass& cls = req.workload.mix[p.class_index];
    SCOPED_TRACE(core::to_string(cls.algorithm) + " from " +
                 std::to_string(p.source));
    sources[p.class_index].insert(p.source);
    EXPECT_EQ(p.shards, cls.shards);
    EXPECT_EQ(p.report.source, p.source);
    util::SimTime service_ps = 0;
    for (const util::SimTime d : p.step_ps) service_ps += d;
    EXPECT_EQ(p.service_ps, service_ps);

    if (cls.shards == 1) {
      core::RunRequest run = req.base;
      run.algorithm = cls.algorithm;
      run.source = p.source;
      const core::TraceRunResult expected = single.run_profiled(g, run);
      EXPECT_EQ(p.report, expected.report);
      EXPECT_EQ(p.step_ps, expected.step_durations);
      EXPECT_EQ(p.step_bytes, expected.step_fetched_bytes);
    } else {
      core::ClusterRequest creq;
      creq.run = req.base;
      creq.run.algorithm = cls.algorithm;
      creq.run.source = p.source;
      creq.num_shards = cls.shards;
      creq.strategy = cls.strategy;
      const core::ClusterReport expected = cluster.run(g, creq);
      EXPECT_EQ(p.report.source, expected.source);
      EXPECT_EQ(p.report.runtime_sec, expected.runtime_sec);
      EXPECT_EQ(p.cluster_runtime_sec, expected.runtime_sec);
      EXPECT_EQ(p.exchange_bytes, expected.exchange_bytes);
      EXPECT_EQ(p.report.fetched_bytes, expected.fetched_bytes);
      EXPECT_EQ(p.report.transactions, expected.transactions);
      EXPECT_EQ(p.report.steps, expected.supersteps);
      // Each exchange phase folds into the superstep it follows.
      std::vector<util::SimTime> steps = expected.superstep_compute_ps;
      for (std::size_t j = 0;
           j < expected.exchange_phase_ps.size() && j < steps.size(); ++j) {
        steps[j] += expected.exchange_phase_ps[j];
      }
      EXPECT_EQ(p.step_ps, steps);
      EXPECT_EQ(p.step_bytes, expected.superstep_fetched_bytes);
    }
  }
  // Every class drew several sources, so sharing was actually exercised,
  // and only the BFS class paid one replay per source.
  for (const std::set<graph::VertexId>& s : sources) EXPECT_GE(s.size(), 2u);
  EXPECT_EQ(server.profiles_computed(), sources[2].size() + 2);
}

// ------------------------------------------------------- thermal soak ----

TEST(QueryServer, SustainedLoadUnderThrottlingRaisesTailOverTime) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());

  // Capacity probe, then a sustained open-loop run at 0.8x capacity.
  serve::ServeRequest probe = mixed_request(0.001, 8);
  const serve::ServeReport idle = server.serve(g, probe);
  ASSERT_GT(idle.service_us.mean, 0.0);
  const double capacity_qps = 1.0e6 / idle.service_us.mean;

  serve::ServeRequest sustained = mixed_request(capacity_qps * 0.8, 48);
  const serve::ServeReport cold = server.serve(g, sustained);
  ASSERT_GT(cold.makespan_sec, 0.0);
  ASSERT_GT(cold.link_bytes, 0u);

  // Thermal budget calibrated from the cold run: cooling absorbs half of
  // the cold byte rate and the throttle trips after ~5% of the traffic.
  // The hot serve is the same request with the model on, on the same
  // server.
  serve::ServeRequest hot_req = sustained;
  device::ThermalParams& thermal = hot_req.config.thermal;
  thermal.enabled = true;
  const double heat_mb = static_cast<double>(cold.link_bytes) / 1.0e6;
  thermal.heat_per_mb = 1.0;
  thermal.cool_per_sec = 0.5 * heat_mb / cold.makespan_sec;
  thermal.throttle_threshold = heat_mb * 0.05;
  thermal.hysteresis = 0.9;
  thermal.throttle_factor = 0.5;
  const serve::ServeReport hot = server.serve(g, hot_req);

  // The stack heats up and throttles; sustained-load p99 sits strictly
  // above the cold-start p99 and drifts upward across the run's windows.
  EXPECT_GT(hot.throttled_quanta, 0u);
  EXPECT_GT(hot.stack_peak_heat, 0.0);
  EXPECT_GT(hot.latency_us.p99, cold.latency_us.p99);
  const auto hot_windows = serve::soak_windows(hot, 4);
  ASSERT_GE(hot_windows.size(), 2u);
  EXPECT_GT(hot_windows.back().p99_us, hot_windows.front().p99_us);
  // Throttling stretches time, never drops bytes: conservation holds.
  EXPECT_TRUE(hot.conservation_ok());
  EXPECT_EQ(hot.link_bytes, cold.link_bytes);

  // thermal.enabled = false on the request reproduces the cold serve
  // record-for-record, whatever the other thermal parameters hold.
  serve::ServeRequest off_req = hot_req;
  off_req.config.thermal.enabled = false;
  const serve::ServeReport off = server.serve(g, off_req);
  EXPECT_EQ(cold, off);
  EXPECT_EQ(off.throttled_quanta, 0u);
  EXPECT_EQ(off.stack_peak_heat, 0.0);
}

// A throttled quantum serves at throttle_factor of the bandwidth, so its
// duration is divided by the factor. Any factor in (0, 1] passes
// validation, and a tiny one stretches the golden smoke request's first
// throttled quantum past 2^64 ps: the serve must throw, not cast.
TEST(QueryServer, ThrottledQuantumPastTheLastPicosecondThrows) {
  const graph::CsrGraph g = golden::smoke_graph();
  serve::ServeRequest req = golden::smoke_serve_request();
  req.config.thermal.enabled = true;
  req.config.thermal.throttle_threshold = 1e-9;
  req.config.thermal.throttle_factor = 1e-300;
  serve::QueryServer server(core::table4_system());
  try {
    server.serve(g, req);
    FAIL() << "a quantum stretched past the last picosecond was served";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("throttled quantum"),
              std::string::npos)
        << e.what();
  }
  req.config.thermal.throttle_factor = 0.5;
  EXPECT_GT(server.serve(g, req).throttled_quanta, 0u);
}

TEST(QueryServer, SoakWindowsCountOnlyCompletedQueries) {
  // Without retries the smoke fault plan fails a query outright. A failed
  // record has no completion (0): it must stay out of every window rather
  // than land in window 0 with a wrapped-around latency.
  const graph::CsrGraph g = golden::smoke_graph();
  serve::FleetRequest req = golden::smoke_fleet_faults_request();
  req.fleet.faults.max_query_retries = 0;
  serve::QueryServer server(core::table3_system(), /*jobs=*/1);
  const serve::ServeReport r = server.serve(g, req).serve;
  ASSERT_GT(r.failed, 0u);
  ASSERT_GT(r.completed, 0u);
  std::uint32_t counted = 0;
  for (const serve::SoakWindow& w : serve::soak_windows(r, 4)) {
    counted += w.completed;
    EXPECT_LE(w.p99_us, r.latency_us.max);
  }
  EXPECT_EQ(counted, r.completed);
}

// ------------------------------------- streaming-estimator fidelity ----

TEST(QueryServer, StreamingP2StaysNearExactPercentiles) {
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  const serve::ServeReport r = server.serve(g, mixed_request(2000.0, 64));
  ASSERT_GT(r.completed, 0u);

  // The report's field is exactly the worst relative gap over the three
  // tracked quantiles...
  const auto rel = [](double exact, double est) {
    return exact > 0.0 ? std::fabs(est - exact) / exact : 0.0;
  };
  const double expected =
      std::max({rel(r.latency_us.p50, r.streaming_p50_us),
                rel(r.latency_us.p95, r.streaming_p95_us),
                rel(r.latency_us.p99, r.streaming_p99_us)});
  EXPECT_EQ(r.p2_max_rel_error, expected);

  // ...and the P² markers, fed every completion, stay within 25% of the
  // exact sorted-sample percentiles at this sample count. A regression in
  // either estimator (or in the completion-order feed) blows this bound.
  EXPECT_GE(r.p2_max_rel_error, 0.0);
  EXPECT_LT(r.p2_max_rel_error, 0.25);

  // One completion: the estimator degenerates to the single sample and
  // the gap is exactly zero.
  const serve::ServeReport one = server.serve(g, mixed_request(100.0, 1));
  ASSERT_EQ(one.completed, 1u);
  EXPECT_EQ(one.p2_max_rel_error, 0.0);
}

TEST(QueryServer, StreamingP2StaysFiniteBelowFiveCompletions) {
  // Regression guard for the P² warm-up: with fewer than five
  // completions the estimator interpolates its sorted prefix; the
  // reported gap must be a real number, never NaN or infinity.
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  for (const std::uint32_t n : {2u, 3u, 4u}) {
    const serve::ServeReport r = server.serve(g, mixed_request(500.0, n));
    ASSERT_EQ(r.completed, n);
    EXPECT_TRUE(std::isfinite(r.streaming_p50_us));
    EXPECT_TRUE(std::isfinite(r.streaming_p95_us));
    EXPECT_TRUE(std::isfinite(r.streaming_p99_us));
    EXPECT_TRUE(std::isfinite(r.p2_max_rel_error)) << n << " completions";
    EXPECT_GE(r.p2_max_rel_error, 0.0);
  }
}

// ------------------------------------------------- sojourn accounting ----

TEST(QueryServer, SojournSplitsExactlyIntoQueueAndService) {
  // Without faults no stack time is lost, so every completed query's
  // sojourn splits exactly into queue + service, per query and in the
  // report's totals. A saturating stream keeps both terms nonzero.
  const graph::CsrGraph g = test_graph();
  serve::QueryServer server(core::table3_system());
  const serve::ServeReport r = server.serve(g, identical_request(1.0e6, 24));
  ASSERT_GT(r.completed, 0u);

  util::SimTime sojourn_total = 0;
  util::SimTime split_total = 0;
  for (const serve::QueryRecord& rec : r.queries) {
    if (rec.shed) continue;
    const util::SimTime sojourn = rec.completion - rec.arrival;
    EXPECT_EQ(rec.lost_ps, 0u) << "query " << rec.id;
    EXPECT_GT(rec.service_ps, 0u) << "query " << rec.id;
    EXPECT_EQ(rec.queue_ps + rec.service_ps, sojourn) << "query " << rec.id;
    sojourn_total += sojourn;
    split_total += rec.queue_ps + rec.service_ps;
  }
  EXPECT_EQ(split_total, sojourn_total);
  // The report-level totals carry the same split.
  const double total_sec = r.time_in_queue_sec + r.time_in_service_sec;
  EXPECT_NEAR(total_sec, util::sec_from_ps(sojourn_total),
              1e-9 * std::max(1.0, total_sec));
  EXPECT_GT(r.time_in_queue_sec, 0.0);
  EXPECT_GT(r.time_in_service_sec, 0.0);
}

// ----------------------------------------------- utilization sanity ----

TEST(QueryServer, UtilizationNeverExceedsOneUnderThrottledSoak) {
  // One stack serialized over a makespan can be at most 100% busy, even
  // when thermal throttling stretches quanta and preemptive policies
  // slice the schedule finely. The model throttles whichever backend
  // serves, host DRAM included.
  const graph::CsrGraph g = test_graph();
  for (const core::BackendKind backend :
       {core::BackendKind::kCxl, core::BackendKind::kHostDram}) {
    serve::QueryServer server(core::table3_system());
    for (const serve::SchedulingPolicy policy : serve::all_policies()) {
      serve::ServeRequest req = mixed_request(1.0e5, 32);
      req.base.backend = backend;
      req.config.policy = policy;
      req.config.quantum_supersteps = 1;
      device::ThermalParams& thermal = req.config.thermal;
      thermal.enabled = true;
      thermal.heat_per_mb = 1.0;
      thermal.cool_per_sec = 1.0;
      thermal.throttle_threshold = 0.5;
      thermal.hysteresis = 0.9;
      thermal.throttle_factor = 0.5;
      const serve::ServeReport r = server.serve(g, req);
      const std::string label =
          core::to_string(backend) + "/" + serve::to_string(policy);
      ASSERT_GT(r.makespan_sec, 0.0) << label;
      EXPECT_GT(r.throttled_quanta, 0u) << label;
      EXPECT_GT(r.utilization, 0.0) << label;
      EXPECT_LE(r.utilization, 1.0 + 1e-9) << label;
    }
  }
}

// ------------------------------------------------- config parsing ----

TEST(Workload, ArrivalTimesThatDoNotFitInPicosecondsThrow) {
  serve::WorkloadSpec spec;
  spec.num_queries = 8;
  // A mean gap of 1e24 ps: past 2^64 on the first arrival.
  spec.offered_qps = 1e-12;
  EXPECT_THROW(serve::make_queries(spec), std::invalid_argument);
  // Every gap fits (about 1e17 ps), but a thousand of them overflow the
  // running arrival clock.
  spec.offered_qps = 1e-5;
  spec.num_queries = 1000;
  EXPECT_THROW(serve::make_queries(spec), std::invalid_argument);
  // Closed loop: a think gap above the mean overflows a maximal mean.
  spec.process = serve::ArrivalProcess::kClosedLoop;
  spec.mean_think_time = std::numeric_limits<util::SimTime>::max();
  EXPECT_THROW(serve::make_queries(spec), std::invalid_argument);
  // A slow stream whose clock still fits expands as before.
  spec = serve::WorkloadSpec{};
  spec.offered_qps = 1e-3;
  EXPECT_EQ(serve::make_queries(spec).size(), spec.num_queries);
}

TEST(QueryServer, PolicyNameParsingRejectsUnknownListingValidSet) {
  for (const serve::SchedulingPolicy p : serve::all_policies()) {
    EXPECT_EQ(serve::policy_from_name(serve::to_string(p)), p);
  }
  try {
    serve::policy_from_name("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("fifo"), std::string::npos);
    EXPECT_NE(what.find("round-robin"), std::string::npos);
    EXPECT_NE(what.find("slo-priority"), std::string::npos);
  }
}

}  // namespace
}  // namespace cxlgraph
