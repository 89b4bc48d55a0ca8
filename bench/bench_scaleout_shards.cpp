/// Scale-out extension: strong scaling of the sharded cluster simulation.
///
/// Sweeps shard counts (1..--max-shards, powers of two) x partitioner x
/// backend for BFS, a PageRank-style sequential sweep, direction-
/// optimizing BFS, and delta-stepping SSSP on the chosen dataset,
/// reporting cluster runtime, its compute/exchange split, the inter-shard
/// traffic, the ingress skew of the asymmetric exchange (max/mean ingress
/// per phase — where degree-balanced and hash-edge cuts separate), and the
/// partition quality numbers. The shards=1 row of every series is the
/// single-runtime baseline the speedups are normalized to;
/// `--check-single` additionally asserts that it is bit-identical to
/// ExternalGraphRuntime::run for every shardable algorithm.
/// `--reorder both` adds a partitioner-aware-reordering variant per row
/// (degree-sort within each shard's local subgraph): runtime/compute move
/// with the changed layout while the cut columns stay identical, which is
/// exactly the locality-vs-cut separation the knob demonstrates.
#include <memory>

#include "bench_common.hpp"
#include "core/cluster_runtime.hpp"
#include "graph/datasets.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace cxlgraph;

/// The algorithms the strong-scaling sweep covers (one per workload
/// class). Validated against core::cluster_supports up front so an
/// unsupported entry fails before the sweep starts, not mid-run.
/// check_single() keeps its own, larger list: it verifies the shards=1
/// identity for *every* shardable algorithm, sweep member or not.
const std::vector<core::Algorithm>& sweep_algorithms() {
  static const std::vector<core::Algorithm> algorithms = {
      core::Algorithm::kBfs, core::Algorithm::kPagerankScan,
      core::Algorithm::kBfsDirOpt, core::Algorithm::kSsspDelta};
  return algorithms;
}

int check_single(const graph::CsrGraph& g,
                 const core::ExperimentOptions& options) {
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kSssp,
        core::Algorithm::kCc, core::Algorithm::kPagerankScan,
        core::Algorithm::kBfsDirOpt, core::Algorithm::kSsspDelta}) {
    for (const core::BackendKind backend :
         {core::BackendKind::kHostDram, core::BackendKind::kCxl}) {
      core::RunRequest req;
      req.algorithm = algorithm;
      req.backend = backend;
      req.source_seed = options.seed;

      core::ExternalGraphRuntime single(core::table3_system());
      const core::RunReport expected = single.run(g, req);

      core::ClusterRuntime cluster(core::table3_system(), options.jobs);
      core::ClusterRequest creq;
      creq.run = req;
      creq.num_shards = 1;
      const core::ClusterReport actual = cluster.run(g, creq);

      if (actual.runtime_sec != expected.runtime_sec ||
          actual.shard_reports.front() != expected) {
        std::cerr << "check-single FAILED for " << core::to_string(algorithm)
                  << " on " << core::to_string(backend)
                  << ": 1-shard cluster report != single runtime report\n";
        return 1;
      }
    }
  }
  std::cerr << "check-single OK: 1-shard cluster == single runtime "
               "(bfs, sssp, cc, pagerank-scan, bfs-dir-opt, sssp-delta "
               "on host-dram, cxl)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 of dataset vertex count", "12");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("max-shards", "largest shard count in the sweep", "16");
  cli.add_option("reorder",
                 "per-shard local relabeling in the sweep: none | "
                 "shard-degree | both (both shows the locality effect "
                 "side by side; the cut columns stay identical)",
                 "none");
  cli.add_option("jobs",
                 "worker threads for per-shard replays "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("check-single",
               "verify shards=1 reproduces the single runtime bit-for-bit "
               "and exit");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  cli.add_option("trace-out",
                 "write the sweep's final run as a Chrome trace-event "
                 "JSON timeline here",
                 "");
  cli.add_option("metrics-out", "write a metrics snapshot JSON here", "");
  if (!cli.parse(argc, argv)) return 0;

  std::unique_ptr<obs::Telemetry> telemetry;
  if (!cli.get("trace-out").empty() || !cli.get("metrics-out").empty()) {
    telemetry =
        std::make_unique<obs::Telemetry>(obs::Telemetry::enabled_config());
  }

  core::ExperimentOptions options;
  options.scale = cli.get_uint("scale", 0, graph::kMaxScale);
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.jobs = cli.get_uint("jobs");
  options.verbose = cli.get_bool("verbose");
  if (options.verbose) util::set_log_level(util::LogLevel::kInfo);
  const std::uint32_t max_shards = cli.get_uint("max-shards", 1, 4096);

  // Weighted so delta-stepping gets non-trivial bucket structure. Note
  // weight sampling advances the generator's RNG stream, so this is a
  // different sampled graph than the unweighted one earlier sweeps used —
  // rows are not comparable across that change.
  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")), options.scale,
      /*weighted=*/true, options.seed);

  if (cli.get_bool("check-single")) return check_single(g, options);

  // Fail fast: validate every (algorithm, partitioner) combination before
  // the first run so an unsupported one aborts with a clear message
  // up front, not half-way through the sweep.
  for (const core::Algorithm algorithm : sweep_algorithms()) {
    if (!core::cluster_supports(algorithm)) {
      std::cerr << "scaleout: algorithm " << core::to_string(algorithm)
                << " has no superstep decomposition; it cannot run under "
                   "the sharded cluster. Drop it from the sweep.\n";
      return 2;
    }
  }

  if (!cli.get_bool("csv")) {
    std::cout << "=== Scale-out: sharded multi-GPU strong scaling ===\n"
              << "dataset: " << cli.get("dataset") << ", scale: 2^"
              << options.scale << " vertices, seed: " << options.seed
              << ", shards: 1.." << max_shards << "\n"
              << "model: per-superstep max shard time + asymmetric "
                 "exchange (slowest-ingress shard per phase)\n\n";
  }

  std::vector<std::uint32_t> shard_counts;
  for (std::uint32_t s = 1; s <= max_shards; s *= 2) {
    shard_counts.push_back(s);
  }

  std::vector<partition::ShardReorder> reorders;
  if (cli.get("reorder") == "both") {
    reorders = {partition::ShardReorder::kNone,
                partition::ShardReorder::kDegreeSorted};
  } else {
    reorders = {partition::reorder_from_name(cli.get("reorder"))};
  }

  util::TablePrinter table(
      {"Algorithm", "Backend", "Partitioner", "Reorder", "Shards",
       "Runtime [ms]", "Speedup", "Compute [ms]", "Exchange [us]",
       "Exchange [B]", "Ingress skew", "Cut frac", "Edge imbal",
       "Max shard [ms]"});

  core::ClusterRuntime cluster(core::table3_system(), options.jobs);
  for (const core::Algorithm algorithm : sweep_algorithms()) {
    for (const core::BackendKind backend :
         {core::BackendKind::kHostDram, core::BackendKind::kCxl}) {
      double baseline_sec = 0.0;
      for (const std::uint32_t shards : shard_counts) {
        // The partitioner is irrelevant at one shard; emit that row once.
        const auto& strategies =
            shards == 1 ? std::vector<partition::Strategy>{
                              partition::Strategy::kVertexRange}
                        : partition::all_strategies();
        // The reorder is irrelevant at one shard too (that row is the
        // unsharded baseline); emit it with kNone only.
        const auto& row_reorders =
            shards == 1 ? std::vector<partition::ShardReorder>{
                              partition::ShardReorder::kNone}
                        : reorders;
        for (const partition::Strategy strategy : strategies) {
          for (const partition::ShardReorder reorder : row_reorders) {
            core::ClusterRequest req;
            req.run.algorithm = algorithm;
            req.run.backend = backend;
            req.run.source_seed = options.seed;
            req.num_shards = shards;
            req.strategy = strategy;
            req.reorder = reorder;
            // One run = one timeline: only the sweep's final row (last
            // algorithm, CXL backend, largest shard count) is recorded.
            cluster.set_telemetry(algorithm == sweep_algorithms().back() &&
                                          backend == core::BackendKind::kCxl &&
                                          shards == shard_counts.back() &&
                                          strategy == strategies.back() &&
                                          reorder == row_reorders.back()
                                      ? telemetry.get()
                                      : nullptr);
            core::ClusterReport r;
            try {
              r = cluster.run(g, req);
            } catch (const std::exception& e) {
              std::cerr << "scaleout: " << core::to_string(algorithm)
                        << " x" << shards << " ("
                        << partition::to_string(strategy) << ", "
                        << core::to_string(backend)
                        << ") failed: " << e.what() << "\n";
              return 2;
            }
            if (shards == 1) baseline_sec = r.runtime_sec;
            if (options.verbose) {
              CXLG_INFO("scaleout: " << r.algorithm << " " << r.backend
                                     << " " << r.partitioner << " x"
                                     << shards << ": t="
                                     << util::fmt(r.runtime_sec * 1e3, 3)
                                     << " ms");
            }
            table.add_row(
                {r.algorithm, r.backend,
                 shards == 1 ? "-" : r.partitioner,
                 shards == 1 ? "-" : partition::to_string(reorder),
                 std::to_string(shards),
                 util::fmt(r.runtime_sec * 1e3, 3),
                 util::fmt(baseline_sec / r.runtime_sec, 2),
                 util::fmt(r.compute_sec * 1e3, 3),
                 util::fmt(r.exchange_sec * 1e6, 3),
                 std::to_string(r.exchange_bytes),
                 util::fmt(r.exchange_ingress_skew, 2),
                 util::fmt(r.cut.cut_fraction, 3),
                 util::fmt(r.cut.edge_imbalance, 2),
                 util::fmt(r.max_shard_compute_sec * 1e3, 3)});
          }
        }
      }
    }
  }

  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  if (telemetry != nullptr) {
    const std::string trace_path = cli.get("trace-out");
    if (!trace_path.empty() && !telemetry->save_trace(trace_path)) {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    const std::string metrics_path = cli.get("metrics-out");
    if (!metrics_path.empty() &&
        !telemetry->save_metrics(metrics_path)) {
      std::cerr << "error: cannot write metrics to " << metrics_path
                << "\n";
      return 1;
    }
  }
  return 0;
}
