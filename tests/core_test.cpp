#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "algo/bfs.hpp"
#include "core/cluster_runtime.hpp"
#include "core/experiment.hpp"
#include "core/experiment_runner.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "report_expect.hpp"

namespace cxlgraph::core {
namespace {

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 12, 16.0, opts);
}

TEST(SystemConfig, NamesRoundTrip) {
  EXPECT_EQ(to_string(BackendKind::kHostDram), "host-dram");
  EXPECT_EQ(to_string(BackendKind::kCxl), "cxl");
  EXPECT_EQ(to_string(BackendKind::kXlfdd), "xlfdd");
  EXPECT_EQ(to_string(BackendKind::kBamNvme), "bam-nvme");
  EXPECT_EQ(to_string(Algorithm::kBfs), "bfs");
  EXPECT_EQ(to_string(Algorithm::kSssp), "sssp");
}

TEST(SystemConfig, Table3IsGen4AndTable4IsGen3) {
  EXPECT_EQ(table3_system().gpu_link_gen, device::PcieGen::kGen4);
  EXPECT_EQ(table4_system().gpu_link_gen, device::PcieGen::kGen3);
  EXPECT_EQ(table4_system().cxl_devices, 5u);
  EXPECT_EQ(table3_system().xlfdd_drives, 16u);
  EXPECT_EQ(table3_system().nvme_drives, 4u);
}

TEST(Runtime, RunsEveryBackend) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  for (const BackendKind backend :
       {BackendKind::kHostDram, BackendKind::kHostDramRemote,
        BackendKind::kCxl, BackendKind::kXlfdd, BackendKind::kBamNvme,
        BackendKind::kUvm}) {
    RunRequest req;
    req.backend = backend;
    const RunReport r = rt.run(g, req);
    EXPECT_GT(r.runtime_sec, 0.0) << to_string(backend);
    EXPECT_GT(r.fetched_bytes, 0u) << to_string(backend);
    EXPECT_GE(r.raf, 0.9) << to_string(backend);
    EXPECT_EQ(r.backend, to_string(backend));
  }
}

TEST(Runtime, RunsEveryAlgorithm) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  for (const Algorithm algorithm :
       {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kCc,
        Algorithm::kPagerankScan}) {
    RunRequest req;
    req.algorithm = algorithm;
    const RunReport r = rt.run(g, req);
    EXPECT_GT(r.steps, 0u) << to_string(algorithm);
    EXPECT_GT(r.used_bytes, 0u) << to_string(algorithm);
  }
}

TEST(Runtime, DeterministicReports) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.backend = BackendKind::kCxl;
  const RunReport a = rt.run(g, req);
  const RunReport b = rt.run(g, req);
  EXPECT_EQ(a, b);
}

TEST(Runtime, ExplicitSourceIsHonored) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.source = 7;
  EXPECT_EQ(rt.run(g, req).source, 7u);
}

TEST(Runtime, SsspReadsMoreThanBfs) {
  // Weighted SSSP revisits vertices; its E must be at least BFS's.
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest bfs_req;
  bfs_req.algorithm = Algorithm::kBfs;
  RunRequest sssp_req;
  sssp_req.algorithm = Algorithm::kSssp;
  EXPECT_GE(rt.run(g, sssp_req).used_bytes, rt.run(g, bfs_req).used_bytes);
}

TEST(Runtime, CxlAddedLatencyKnobTakesEffect) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest fast;
  fast.backend = BackendKind::kCxl;
  fast.cxl_added_latency = 0;
  RunRequest slow = fast;
  slow.cxl_added_latency = util::ps_from_us(10.0);
  const RunReport rf = rt.run(g, fast);
  const RunReport rs = rt.run(g, slow);
  EXPECT_GT(rs.runtime_sec, rf.runtime_sec);
  EXPECT_GT(rs.observed_read_latency_us, rf.observed_read_latency_us + 5.0);
}

TEST(Runtime, AlignmentOverrideChangesTraffic) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  RunRequest fine;
  fine.backend = BackendKind::kXlfdd;
  fine.alignment = 16;
  RunRequest coarse = fine;
  coarse.alignment = 512;
  EXPECT_LT(rt.run(g, fine).fetched_bytes, rt.run(g, coarse).fetched_bytes);
}

TEST(Runtime, BamLineOutsideDriveLimitsThrows) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.backend = BackendKind::kBamNvme;
  req.alignment = 16;  // below the NVMe 512 B minimum
  EXPECT_THROW(rt.run(g, req), std::invalid_argument);
}

TEST(Runtime, RemoteDramSlowerThanLocal) {
  ExternalGraphRuntime rt(table4_system());
  EXPECT_GT(rt.measure_latency_us(BackendKind::kHostDramRemote),
            rt.measure_latency_us(BackendKind::kHostDram));
}

TEST(Runtime, MeasuredCxlLatencyTracksKnob) {
  ExternalGraphRuntime rt(table4_system());
  const double base = rt.measure_latency_us(BackendKind::kCxl, 0);
  const double plus2 =
      rt.measure_latency_us(BackendKind::kCxl, util::ps_from_us(2.0));
  // The latency bridge absorbs the DRAM-access portion (Appendix A), so
  // the delta lands slightly under the programmed 2 us.
  EXPECT_NEAR(plus2 - base, 2.0, 0.25);
}

TEST(Runtime, PointerChaseRejectsStorageBackends) {
  ExternalGraphRuntime rt(table3_system());
  EXPECT_THROW(rt.measure_latency_us(BackendKind::kXlfdd),
               std::invalid_argument);
}

TEST(Runtime, MakeTraceMatchesAlgorithms) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  const auto t = rt.make_trace(g, Algorithm::kPagerankScan, 0);
  EXPECT_EQ(t.total_sublist_bytes, g.edge_list_bytes());
}

// CC and the PageRank scan sweep the whole graph, so every source yields
// the same trace, single-stack or sharded, and a caller may replay them
// once and rebind the source. Checked against the traversals themselves;
// every other algorithm's trace must start from its source.
TEST(Runtime, SourceFreeAlgorithmsIgnoreTheSource) {
  ExternalGraphRuntime rt(table3_system());
  ClusterRuntime cluster(table3_system());
  const graph::CsrGraph g = test_graph();
  const graph::VertexId s1 = algo::pick_source(g, 1);
  const graph::VertexId s2 = algo::pick_source(g, 2);
  ASSERT_NE(s1, s2);
  for (const Algorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(to_string(algorithm));
    const bool same_trace = rt.make_trace(g, algorithm, s1) ==
                            rt.make_trace(g, algorithm, s2);
    EXPECT_EQ(same_trace, !uses_source(algorithm));
    if (uses_source(algorithm) || !cluster_supports(algorithm)) continue;

    ClusterRequest creq;
    creq.run.algorithm = algorithm;
    creq.run.backend = BackendKind::kCxl;
    creq.num_shards = 2;
    creq.strategy = partition::Strategy::kDegreeBalanced;
    creq.run.source = s1;
    const ClusterReport a = cluster.run(g, creq);
    creq.run.source = s2;
    ClusterReport b = cluster.run(g, creq);
    EXPECT_EQ(a.source, s1);
    EXPECT_EQ(b.source, s2);
    // Identical except the source: rebind it, then compare every field.
    b.source = s1;
    for (RunReport& shard : b.shard_reports) shard.source = s1;
    EXPECT_EQ(a, b);
  }
}

// ------------------------------------------------------- held trace ----

void expect_same_run(const TraceRunResult& held, const TraceRunResult& fresh) {
  EXPECT_EQ(held.report, fresh.report);
  EXPECT_EQ(held.step_durations, fresh.step_durations);
  EXPECT_EQ(held.step_fetched_bytes, fresh.step_fetched_bytes);
  EXPECT_EQ(held.events, fresh.events);
}

// One runtime replays its held trace while (graph, algorithm, source)
// repeats and rebuilds when any of them changes. A, A', B, A sequences
// (A' a hit that changes only the memory stack, B a miss) must give
// every report a fresh runtime gives.
TEST(Runtime, HeldTraceRunsMatchFreshRuntimes) {
  const graph::CsrGraph g = test_graph();
  RunRequest a;
  a.backend = BackendKind::kCxl;
  a.cxl_added_latency = util::ps_from_us(0.5);
  RunRequest slower = a;
  slower.cxl_added_latency = util::ps_from_us(2.0);
  RunRequest dram = a;
  dram.backend = BackendKind::kHostDram;
  RunRequest pinned = a;
  pinned.backend = BackendKind::kXlfdd;
  pinned.source = resolve_source(g, a.source, a.source_seed);
  RunRequest sssp = a;
  sssp.algorithm = Algorithm::kSssp;
  RunRequest elsewhere = a;
  elsewhere.source_seed = 5;
  ASSERT_NE(resolve_source(g, elsewhere.source, elsewhere.source_seed),
            resolve_source(g, a.source, a.source_seed));

  const std::vector<std::vector<RunRequest>> sequences = {
      {a, slower, sssp, a},
      {a, dram, elsewhere, a},
      {a, pinned, sssp, slower},
      {sssp, sssp, elsewhere, dram},
  };
  for (const std::vector<RunRequest>& sequence : sequences) {
    ExternalGraphRuntime rt(table4_system());
    for (const RunRequest& req : sequence) {
      SCOPED_TRACE(to_string(req.algorithm) + " on " +
                   to_string(req.backend));
      ExternalGraphRuntime fresh(table4_system());
      expect_same_run(rt.run_profiled(g, req), fresh.run_profiled(g, req));
    }
  }
}

// One held trace replayed through a run of access methods: the held
// expansion may serve a replay only when the method's kind and every
// construction parameter match (host DRAM and CXL share EMOGI's; alignment
// and cache size do not). Each run must equal a fresh runtime's and the
// step-by-step run_trace replay, events included.
TEST(Runtime, HeldExpansionsMatchFreshRuntimes) {
  const graph::CsrGraph g = test_graph();
  RunRequest dram;
  dram.algorithm = Algorithm::kSssp;
  RunRequest cxl = dram;
  cxl.backend = BackendKind::kCxl;
  cxl.cxl_added_latency = util::ps_from_us(0.5);
  RunRequest slower = cxl;
  slower.cxl_added_latency = util::ps_from_us(2.0);
  RunRequest aligned = cxl;
  aligned.alignment = 64;
  RunRequest bam = dram;
  bam.backend = BackendKind::kBamNvme;
  bam.cache_bytes = 64u << 10;
  RunRequest bigger_bam = bam;
  bigger_bam.cache_bytes = 1u << 20;
  RunRequest xlfdd = dram;
  xlfdd.backend = BackendKind::kXlfdd;

  const graph::VertexId source =
      resolve_source(g, dram.source, dram.source_seed);
  ExternalGraphRuntime rt(table4_system());
  const algo::AccessTrace trace = rt.make_trace(g, dram.algorithm, source);
  for (const RunRequest& req :
       {dram, cxl, slower, aligned, bam, bigger_bam, xlfdd, cxl}) {
    SCOPED_TRACE(to_string(req.backend) + " align " +
                 std::to_string(req.alignment.value_or(0)) + " cache " +
                 std::to_string(req.cache_bytes.value_or(0)));
    const TraceRunResult held = rt.run_profiled(g, req);
    expect_same_run(held,
                    ExternalGraphRuntime(table4_system()).run_profiled(g, req));
    expect_same_run(held, rt.run_trace(trace, req, g, source));
  }
}

// The source pick runs only when a request names no source: an explicit
// source needs no edges, while a pick on an edgeless graph still throws.
TEST(Runtime, ExplicitSourceRunsOnAnEdgelessGraph) {
  const graph::CsrGraph g = graph::build_csr(4, {});
  RunRequest req;
  req.source = 2;
  ExternalGraphRuntime rt(table4_system());
  const RunReport r = rt.run(g, req);
  EXPECT_EQ(r.source, 2u);
  EXPECT_EQ(r.graph_edges, 0u);

  ClusterRequest cluster_req;
  cluster_req.run = req;
  cluster_req.num_shards = 2;
  EXPECT_EQ(ClusterRuntime(table4_system()).run(g, cluster_req).source, 2u);

  req.source.reset();
  try {
    rt.run(g, req);
    ADD_FAILURE() << "a picked source on an edgeless graph must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "pick_source: graph has no edges");
  }
}

// A graph reassigned in place keeps its address and shape but takes the
// new contents' id, so the held trace of the old contents must not replay.
TEST(Runtime, ReassignedGraphRebuildsTheHeldTrace) {
  graph::CsrGraph g = graph::make_dataset(graph::DatasetId::kUrand, 10,
                                          /*weighted=*/false, /*seed=*/1);
  RunRequest req;
  req.source = algo::pick_source(g, 1);
  ExternalGraphRuntime rt(table4_system());
  const RunReport before = rt.run(g, req);

  const graph::CsrGraph* const address = &g;
  const std::uint64_t vertices = g.num_vertices();
  g = graph::make_dataset(graph::DatasetId::kUrand, 10, /*weighted=*/false,
                          /*seed=*/2);
  ASSERT_EQ(&g, address);
  ASSERT_EQ(g.num_vertices(), vertices);

  const RunReport after = rt.run(g, req);
  EXPECT_EQ(after, ExternalGraphRuntime(table4_system()).run(g, req));
  EXPECT_NE(after, before);
}

// A make_trace that throws leaves nothing held, not even its key: the
// same request throws again, and the runs after it are those of a fresh
// runtime.
TEST(Runtime, FailedTraceBuildLeavesTheRuntimeCorrect) {
  const graph::CsrGraph g = test_graph();
  RunRequest good;
  RunRequest bad = good;
  bad.source = g.num_vertices();
  RunRequest other = good;
  other.backend = BackendKind::kCxl;

  ExternalGraphRuntime rt(table4_system());
  ExternalGraphRuntime fresh(table4_system());
  const RunReport expected = fresh.run(g, good);
  EXPECT_EQ(rt.run(g, good), expected);
  EXPECT_THROW(rt.run(g, bad), std::out_of_range);
  EXPECT_THROW(rt.run(g, bad), std::out_of_range);
  EXPECT_EQ(rt.run(g, other), fresh.run(g, other));
  EXPECT_EQ(rt.run(g, good), expected);
}

// --------------------------------------------------- experiment runner ----

TEST(ExperimentRunner, EmptySweepReturnsEmpty) {
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_TRUE(runner.run_all(std::vector<SweepJob>{}).empty());
}

TEST(ExperimentRunner, ResultsComeBackInInsertionOrder) {
  const graph::CsrGraph g = test_graph();
  std::vector<RunRequest> requests;
  for (const BackendKind backend :
       {BackendKind::kHostDram, BackendKind::kCxl, BackendKind::kXlfdd,
        BackendKind::kBamNvme}) {
    RunRequest req;
    req.backend = backend;
    requests.push_back(req);
  }
  ExperimentRunner runner(table3_system(), /*jobs=*/4);
  const std::vector<RunReport> reports = runner.run_all(g, requests);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].backend, "host-dram");
  EXPECT_EQ(reports[1].backend, "cxl");
  EXPECT_EQ(reports[2].backend, "xlfdd");
  EXPECT_EQ(reports[3].backend, "bam-nvme");
}

TEST(ExperimentRunner, PerJobConfigOverrideIsHonored) {
  const graph::CsrGraph g = test_graph();
  SweepJob defaults;
  defaults.graph = &g;
  defaults.request.backend = BackendKind::kHostDram;
  SweepJob gen3 = defaults;
  SystemConfig cfg = table3_system();
  cfg.gpu_link_gen = device::PcieGen::kGen3;
  gen3.config = cfg;

  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  const std::vector<RunReport> reports = runner.run_all({defaults, gen3});
  ASSERT_EQ(reports.size(), 2u);
  // Same workload on a half-bandwidth link must be slower.
  EXPECT_GT(reports[1].runtime_sec, reports[0].runtime_sec);
}

TEST(ExperimentRunner, NullGraphThrows) {
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_THROW(runner.run_all({SweepJob{}}), std::invalid_argument);
}

TEST(ExperimentRunner, WorkerExceptionPropagates) {
  const graph::CsrGraph g = test_graph();
  SweepJob bad;
  bad.graph = &g;
  bad.request.backend = BackendKind::kBamNvme;
  bad.request.alignment = 1;  // below the NVMe minimum transfer
  SweepJob good;
  good.graph = &g;
  good.request.backend = BackendKind::kHostDram;

  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_THROW(runner.run_all({good, bad, good}), std::invalid_argument);
}

// Jobs with one (graph, algorithm, source) replay one trace across
// backends, knobs and per-job configs; each report must equal a fresh
// runtime's run of that job, serially and on four workers.
TEST(ExperimentRunner, SharedTracesMatchAFreshRunPerJob) {
  const graph::CsrGraph g = test_graph();
  graph::GeneratorOptions opts;
  opts.seed = 7;
  const graph::CsrGraph h = graph::generate_uniform(1 << 12, 16.0, opts);
  SystemConfig two_devices = table4_system();
  two_devices.cxl_devices = 2;
  SystemConfig gen4 = table4_system();
  gen4.gpu_link_gen = device::PcieGen::kGen4;

  const auto job = [](const graph::CsrGraph& graph, Algorithm algorithm,
                      BackendKind backend) {
    SweepJob j;
    j.graph = &graph;
    j.request.algorithm = algorithm;
    j.request.backend = backend;
    return j;
  };
  std::vector<SweepJob> jobs;
  jobs.push_back(job(g, Algorithm::kBfs, BackendKind::kHostDram));
  for (const double added : {0.0, 1.0, 3.0}) {
    jobs.push_back(job(g, Algorithm::kBfs, BackendKind::kCxl));
    jobs.back().request.cxl_added_latency = util::ps_from_us(added);
  }
  jobs.push_back(job(g, Algorithm::kBfs, BackendKind::kCxl));
  jobs.back().config = two_devices;
  jobs.push_back(job(g, Algorithm::kSssp, BackendKind::kHostDram));
  jobs.push_back(job(h, Algorithm::kBfs, BackendKind::kHostDram));
  jobs.push_back(job(g, Algorithm::kSssp, BackendKind::kXlfdd));
  jobs.back().config = gen4;
  jobs.push_back(job(g, Algorithm::kBfs, BackendKind::kHostDram));
  jobs.back().request.source_seed = 5;
  jobs.push_back(job(g, Algorithm::kBfs, BackendKind::kXlfdd));
  jobs.back().request.source = resolve_source(
      g, jobs.front().request.source, jobs.front().request.source_seed);
  jobs.push_back(job(h, Algorithm::kCc, BackendKind::kCxl));

  std::vector<RunReport> expected;
  for (const SweepJob& j : jobs) {
    ExternalGraphRuntime fresh(j.config.value_or(table4_system()));
    expected.push_back(fresh.run(*j.graph, j.request));
  }
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    ExperimentRunner runner(table4_system(), workers);
    EXPECT_EQ(runner.run_all(jobs), expected);
  }
}

// A shared trace that fails to build throws from its jobs' own tasks, so
// the error that propagates is still the first in insertion order.
TEST(ExperimentRunner, FailedSharedTraceKeepsInsertionOrderErrors) {
  const graph::CsrGraph g = test_graph();
  SweepJob bad_line;
  bad_line.graph = &g;
  bad_line.request.backend = BackendKind::kBamNvme;
  bad_line.request.alignment = 1;  // throws std::invalid_argument
  SweepJob bad_source;
  bad_source.graph = &g;
  bad_source.request.source = g.num_vertices();  // throws std::out_of_range
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    ExperimentRunner runner(table3_system(), workers);
    EXPECT_THROW(runner.run_all({bad_line, bad_source, bad_source}),
                 std::invalid_argument);
    EXPECT_THROW(runner.run_all({bad_source, bad_line, bad_source}),
                 std::out_of_range);
  }
}

TEST(ExperimentRunner, RunTracesMatchesRun) {
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.algorithm = Algorithm::kBfs;
  req.backend = BackendKind::kHostDram;

  ExternalGraphRuntime rt(table3_system());
  const RunReport expected = rt.run(g, req);
  const algo::AccessTrace trace =
      rt.make_trace(g, req.algorithm, expected.source);

  TraceJob job;
  job.trace = &trace;
  job.request = req;
  job.edge_list_bytes = g.edge_list_bytes();
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  const std::vector<TraceRunResult> results =
      runner.run_traces({job, job});
  ASSERT_EQ(results.size(), 2u);
  for (const TraceRunResult& r : results) {
    EXPECT_EQ(r.report.runtime_sec, expected.runtime_sec);
    EXPECT_EQ(r.report.fetched_bytes, expected.fetched_bytes);
    ASSERT_EQ(r.step_durations.size(), expected.steps);
    util::SimTime total = 0;
    for (const util::SimTime d : r.step_durations) total += d;
    EXPECT_EQ(util::sec_from_ps(total), expected.runtime_sec);
  }
  EXPECT_THROW(runner.run_traces({TraceJob{}}), std::invalid_argument);
}

TEST(ExperimentRunner, MapTasksPreservesOrderAndPropagates) {
  ExperimentRunner runner(table3_system(), /*jobs=*/4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const std::vector<int> results = runner.map_tasks(tasks);
  ASSERT_EQ(results.size(), tasks.size());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * i);

  tasks[7] = []() -> int { throw std::runtime_error("boom"); };
  EXPECT_THROW(runner.map_tasks(tasks), std::runtime_error);
}

TEST(Experiment, MakeDatasetsParallelMatchesSerial) {
  ExperimentOptions serial;
  serial.scale = 10;
  serial.jobs = 1;
  ExperimentOptions parallel = serial;
  parallel.jobs = 0;
  const DatasetBundle a = make_datasets(serial);
  const DatasetBundle b = make_datasets(parallel);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].spec.name, b.entries[i].spec.name);
    EXPECT_EQ(a.entries[i].graph.offsets(), b.entries[i].graph.offsets());
    EXPECT_EQ(a.entries[i].graph.edges(), b.entries[i].graph.edges());
    EXPECT_EQ(a.entries[i].graph.weights(), b.entries[i].graph.weights());
  }
}

}  // namespace
}  // namespace cxlgraph::core
