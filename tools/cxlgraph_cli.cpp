/// \file cxlgraph_cli.cpp
/// Command-line front end for the cxlgraph library.
///
///   cxlgraph generate --dataset=urand --scale=18 --out=g.cxlg
///   cxlgraph convert  --in=edges.txt --out=g.cxlg [--symmetrize]
///   cxlgraph info     g.cxlg
///   cxlgraph reorder  --in=g.cxlg --out=g2.cxlg --order=degree-sorted
///   cxlgraph run      --graph=g.cxlg --algo=bfs --backend=cxl
///                     [--added-us=1.0] [--alignment=32] [--gen3]
///                     [--shards=4] [--partitioner=degree-balanced]
///                     [--reorder=shard-degree]
///   cxlgraph serve    --dataset=urand --scale=14 --backend=cxl
///                     [--qps=500] [--queries=128] [--policy=fifo]
///                     [--slo-us=20000] [--queue-cap=64] [--closed-loop]
///                     [--replicas=4] [--router=join-shortest-queue]
///                     [--migrate=at_ms:class:from:to] [--elastic-max=4]
///                     [--incidents-out=incidents.json]
///
/// `run` without --graph generates the dataset on the fly
/// (--dataset/--scale). With --shards >= 2 the run goes through the
/// sharded cluster simulation (core::ClusterRuntime): the graph is
/// partitioned, every shard gets its own GPU + backend stack, and the
/// report adds the exchange/cut numbers.
///
/// `serve` admits a seeded stream of mixed analytics queries against
/// --replicas copies of the stack (default 1: one shared stack) behind
/// the --router (default random) through serve::QueryServer, and reports
/// the latency tail, goodput, SLO violations, and shed rate under the
/// chosen scheduling policy and admission cap, plus any live tenant
/// migration, elastic scaling, fault injection, and the health monitor's
/// incident log (--incidents-out). Every serve takes the same path and
/// prints the same table.
///
/// Count options and the integer fields of --migrate, --quota and
/// --faults are range-checked (util::parse_uint): a negative,
/// fractional or out-of-range count is an error, never a wrapped value.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "obs/telemetry.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace cxlgraph;

int usage() {
  std::cerr << "usage: cxlgraph <generate|convert|info|reorder|run|serve> "
               "[options]\n"
               "run --help with a subcommand for its options\n";
  return 2;
}

/// Telemetry plumbing shared by `run` and `serve`: both outputs default
/// empty (telemetry fully off — the bit-identical fast path); naming
/// either file enables the sink for the whole run.
void add_telemetry_options(util::CliParser& cli) {
  cli.add_option("trace-out",
                 "write a Chrome trace-event JSON timeline here "
                 "(load in Perfetto)",
                 "");
  cli.add_option("metrics-out", "write a metrics snapshot JSON here", "");
}

std::unique_ptr<obs::Telemetry> make_telemetry(const util::CliParser& cli) {
  if (cli.get("trace-out").empty() && cli.get("metrics-out").empty()) {
    return nullptr;
  }
  return std::make_unique<obs::Telemetry>(obs::Telemetry::enabled_config());
}

int save_telemetry(const util::CliParser& cli,
                   const obs::Telemetry* telemetry) {
  if (telemetry == nullptr) return 0;
  const std::string trace_path = cli.get("trace-out");
  if (!trace_path.empty() && !telemetry->save_trace(trace_path)) {
    std::cerr << "error: cannot write trace to " << trace_path << "\n";
    return 1;
  }
  const std::string metrics_path = cli.get("metrics-out");
  if (!metrics_path.empty() && !telemetry->save_metrics(metrics_path)) {
    std::cerr << "error: cannot write metrics to " << metrics_path << "\n";
    return 1;
  }
  return 0;
}

graph::VertexOrder order_from(const std::string& name) {
  for (const auto order :
       {graph::VertexOrder::kIdentity, graph::VertexOrder::kDegreeSorted,
        graph::VertexOrder::kBfs, graph::VertexOrder::kRandom}) {
    if (graph::to_string(order) == name) return order;
  }
  throw std::invalid_argument("unknown order: " + name);
}

int cmd_generate(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 vertex count", "16");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("out", "output path (binary CSR)", "graph.cxlg");
  cli.add_flag("weighted", "attach uniform [1,63] edge weights");
  if (!cli.parse(argc, argv)) return 0;
  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")),
      cli.get_uint("scale", 0, graph::kMaxScale), cli.get_bool("weighted"),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  graph::save_binary_file(g, cli.get("out"));
  std::cout << "wrote " << cli.get("out") << ": " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";
  return 0;
}

int cmd_convert(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("in", "input text edge list", "");
  cli.add_option("out", "output path (binary CSR)", "graph.cxlg");
  cli.add_flag("symmetrize", "add reverse edges");
  if (!cli.parse(argc, argv)) return 0;
  std::ifstream is(cli.get("in"));
  if (!is) {
    std::cerr << "cannot open " << cli.get("in") << "\n";
    return 1;
  }
  const graph::CsrGraph g =
      graph::load_edge_list(is, cli.get_bool("symmetrize"));
  graph::save_binary_file(g, cli.get("out"));
  std::cout << "wrote " << cli.get("out") << ": " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  util::CliParser cli;
  if (!cli.parse(argc, argv)) return 0;
  if (cli.positional().empty()) {
    std::cerr << "usage: cxlgraph info <graph.cxlg>\n";
    return 2;
  }
  const graph::CsrGraph g =
      graph::load_binary_file(cli.positional().front());
  const graph::DegreeStats s = graph::degree_stats(g);
  util::TablePrinter table({"Property", "Value"});
  table.add_row({"vertices", util::fmt_count(s.num_vertices)});
  table.add_row({"edges", util::fmt_count(s.num_edges)});
  table.add_row({"edge list", util::format_bytes(s.edge_list_bytes)});
  table.add_row({"weighted", g.weighted() ? "yes" : "no"});
  table.add_row({"avg degree (nonzero)", util::fmt(s.avg_degree_nonzero, 2)});
  table.add_row({"avg sublist", util::fmt(s.avg_sublist_bytes, 1) + " B"});
  table.add_row({"max degree", util::fmt_count(s.max_degree)});
  table.add_row({"isolated vertices",
                 util::fmt_count(s.zero_degree_vertices)});
  table.print(std::cout);
  return 0;
}

int cmd_reorder(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("in", "input binary CSR", "");
  cli.add_option("out", "output binary CSR", "");
  cli.add_option("order", "identity | degree-sorted | bfs | random",
                 "degree-sorted");
  cli.add_option("seed", "random seed", "42");
  if (!cli.parse(argc, argv)) return 0;
  const graph::CsrGraph g = graph::load_binary_file(cli.get("in"));
  const graph::CsrGraph out = graph::reorder(
      g, order_from(cli.get("order")),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  graph::save_binary_file(out, cli.get("out"));
  std::cout << "wrote " << cli.get("out") << " in " << cli.get("order")
            << " order\n";
  return 0;
}

int cmd_run(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("graph", "binary CSR path (omit to generate)", "");
  cli.add_option("dataset", "generated dataset when --graph absent",
                 "urand");
  cli.add_option("scale", "generated scale", "16");
  cli.add_option("seed", "seed", "42");
  cli.add_option("algo",
                 "bfs | sssp | cc | pagerank-scan | bfs-dir-opt | "
                 "sssp-delta",
                 "bfs");
  cli.add_option("backend",
                 "host-dram | host-dram-remote | cxl | xlfdd | bam-nvme | "
                 "uvm",
                 "host-dram");
  cli.add_option("added-us", "CXL added latency [us]", "0");
  cli.add_option("alignment", "access alignment override [B]", "0");
  cli.add_option("shards",
                 "number of simulated GPU shards (>= 2 enables the "
                 "cluster path)",
                 "1");
  cli.add_option("partitioner",
                 "vertex-range | degree-balanced | hash-edge", "vertex-range");
  cli.add_option("reorder",
                 "per-shard local relabeling: none | shard-degree",
                 "none");
  cli.add_option("jobs", "worker threads for per-shard replays", "0");
  cli.add_flag("gen3", "use the Gen3 (Table-4) system preset");
  cli.add_flag("direct-cxl", "model a direct GPU-CXL path (Sec. 5)");
  add_telemetry_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::unique_ptr<obs::Telemetry> telemetry = make_telemetry(cli);

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  graph::CsrGraph g =
      cli.get("graph").empty()
          ? graph::make_dataset(graph::dataset_from_name(cli.get("dataset")),
                                cli.get_uint("scale", 0, graph::kMaxScale),
                                /*weighted=*/true, seed)
          : graph::load_binary_file(cli.get("graph"));

  core::SystemConfig cfg =
      cli.get_bool("gen3") ? core::table4_system() : core::table3_system();
  cfg.gpu_direct_cxl = cli.get_bool("direct-cxl");
  core::ExternalGraphRuntime runtime(cfg);

  core::RunRequest req;
  req.algorithm = core::algorithm_from_name(cli.get("algo"));
  req.backend = core::backend_from_name(cli.get("backend"));
  req.source_seed = seed;
  const double added_us = cli.get_double("added-us");
  const util::SimTime added = util::checked_ps_from_us(added_us, "--added-us");
  if (added_us > 0) req.cxl_added_latency = added;
  if (const std::uint32_t alignment = cli.get_uint("alignment");
      alignment > 0) {
    req.alignment = alignment;
  }

  // partition::make_partition bounds the shard count.
  const std::uint32_t shards = cli.get_uint("shards", 1);
  const std::uint32_t jobs = cli.get_uint("jobs");
  if (shards >= 2) {
    core::ClusterRuntime cluster(cfg, jobs);
    cluster.set_telemetry(telemetry.get());
    core::ClusterRequest creq;
    creq.run = req;
    creq.num_shards = shards;
    creq.strategy = partition::strategy_from_name(cli.get("partitioner"));
    creq.reorder = partition::reorder_from_name(cli.get("reorder"));
    const core::ClusterReport r = cluster.run(g, creq);

    util::TablePrinter table({"Metric", "Value"});
    table.add_row({"algorithm", r.algorithm});
    table.add_row({"backend", r.backend + " (" + r.access_method + ")"});
    table.add_row({"shards", std::to_string(r.num_shards) + " x " +
                                 r.partitioner +
                                 (cli.get("reorder") == "none"
                                      ? ""
                                      : " + " + cli.get("reorder"))});
    table.add_row({"source", std::to_string(r.source)});
    table.add_row({"cluster runtime",
                   util::fmt(r.runtime_sec * 1e3, 3) + " ms"});
    table.add_row({"  compute (max shard per superstep)",
                   util::fmt(r.compute_sec * 1e3, 3) + " ms"});
    table.add_row({"  frontier exchange",
                   util::fmt(r.exchange_sec * 1e3, 3) + " ms"});
    table.add_row({"exchange traffic",
                   util::format_bytes(r.exchange_bytes) + " (" +
                       util::fmt_count(r.exchange_messages) + " msgs)"});
    table.add_row({"exchange ingress skew (max/mean)",
                   util::fmt(r.exchange_ingress_skew, 2)});
    table.add_row({"supersteps", util::fmt_count(r.supersteps)});
    if (req.algorithm == core::Algorithm::kBfsDirOpt) {
      std::uint64_t pull = 0;
      for (const std::uint8_t b : r.superstep_bottom_up) pull += b;
      table.add_row({"  pull (bottom-up) supersteps",
                     util::fmt_count(pull)});
    }
    if (req.algorithm == core::Algorithm::kSsspDelta) {
      table.add_row({"  bucket epochs", util::fmt_count(r.bucket_epochs)});
    }
    table.add_row({"D (fetched bytes, all shards)",
                   util::format_bytes(r.fetched_bytes)});
    table.add_row({"cut fraction", util::fmt(r.cut.cut_fraction, 3)});
    table.add_row({"edge imbalance", util::fmt(r.cut.edge_imbalance, 2)});
    table.add_row({"slowest shard compute",
                   util::fmt(r.max_shard_compute_sec * 1e3, 3) + " ms"});
    table.print(std::cout);
    return save_telemetry(cli, telemetry.get());
  }

  runtime.set_telemetry(telemetry.get());
  const core::RunReport r = runtime.run(g, req);

  util::TablePrinter table({"Metric", "Value"});
  table.add_row({"algorithm", r.algorithm});
  table.add_row({"backend", r.backend + " (" + r.access_method + ")"});
  table.add_row({"source", std::to_string(r.source)});
  table.add_row({"graph-processing time",
                 util::fmt(r.runtime_sec * 1e3, 3) + " ms"});
  table.add_row({"throughput", util::fmt(r.throughput_mbps, 0) + " MB/s"});
  table.add_row({"RAF (D/E)", util::fmt(r.raf, 3)});
  table.add_row({"avg transfer d", util::fmt(r.avg_transfer_bytes, 1) +
                                       " B"});
  table.add_row({"E (sublist bytes)", util::format_bytes(r.used_bytes)});
  table.add_row({"D (fetched bytes)", util::format_bytes(r.fetched_bytes)});
  table.add_row({"transactions", util::fmt_count(r.transactions)});
  table.add_row({"steps", util::fmt_count(r.steps)});
  table.add_row({"latency under load",
                 util::fmt(r.observed_read_latency_us, 2) + " us"});
  table.print(std::cout);
  return save_telemetry(cli, telemetry.get());
}

int cmd_serve(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("graph", "binary CSR path (omit to generate)", "");
  cli.add_option("dataset", "generated dataset when --graph absent",
                 "urand");
  cli.add_option("scale", "generated scale", "14");
  cli.add_option("seed", "seed (workload + dataset)", "42");
  cli.add_option("backend", "host-dram | host-dram-remote | cxl", "cxl");
  cli.add_option("mix",
                 "comma-separated algorithms sharing the stack",
                 "bfs,cc,pagerank-scan");
  cli.add_option("qps", "open-loop offered load [queries/s]", "500");
  cli.add_option("queries", "queries in the stream", "128");
  cli.add_option("policy", "fifo | round-robin | slo-priority", "fifo");
  cli.add_option("slo-us", "per-query latency objective [us]", "20000");
  cli.add_option("queue-cap",
                 "admission: max waiting queries (0 = unbounded)", "0");
  cli.add_option("quantum", "supersteps per preemptive turn", "4");
  cli.add_option("span-shards",
                 "route the first mix class across this many shards "
                 "(0 = single stack)",
                 "0");
  cli.add_option("clients", "closed-loop client count", "4");
  cli.add_option("think-us", "closed-loop mean think time [us]", "1000");
  cli.add_option("source-pool",
                 "distinct traversal sources (0 = one per query)", "8");
  cli.add_option("jobs", "worker threads for profiling", "0");
  cli.add_option("replicas", "stack replicas behind the router", "1");
  cli.add_option("router", "random | join-shortest-queue | class-affinity",
                 "random");
  cli.add_option("migrate",
                 "live migrations, comma-separated at_ms:class:from:to",
                 "");
  cli.add_option("quota",
                 "per-tenant admission caps, comma-separated class:max",
                 "");
  cli.add_option("elastic-max",
                 "elastic controller: grow up to this many replicas "
                 "(0 = fixed fleet)",
                 "0");
  cli.add_option("elastic-interval-us",
                 "elastic controller check interval [us]", "1000");
  cli.add_flag("slo-shed",
               "shed arrivals whose SLO is already infeasible");
  cli.add_option("faults",
                 "fault plan, comma-separated key=value (seed, horizon-ms, "
                 "crashes, restart-ms, provision-ms, io-bursts, "
                 "io-burst-ms, io-rate, io-retry-us, io-max-retries, "
                 "link-flaps, flap-ms, flap-derate, query-retries, "
                 "backoff-us)",
                 "");
  cli.add_option("incidents-out",
                 "write the health monitor's incident log JSON here", "");
  cli.add_flag("closed-loop",
               "closed-loop clients instead of open-loop Poisson");
  cli.add_flag("gen3", "use the Gen3 (Table-4) system preset");
  add_telemetry_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::unique_ptr<obs::Telemetry> telemetry = make_telemetry(cli);

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const graph::CsrGraph g =
      cli.get("graph").empty()
          ? graph::make_dataset(graph::dataset_from_name(cli.get("dataset")),
                                cli.get_uint("scale", 0, graph::kMaxScale),
                                /*weighted=*/true, seed)
          : graph::load_binary_file(cli.get("graph"));

  serve::QueryServer server(
      cli.get_bool("gen3") ? core::table4_system() : core::table3_system(),
      cli.get_uint("jobs"));
  server.set_telemetry(telemetry.get());

  serve::FleetRequest req;
  req.base.backend = core::backend_from_name(cli.get("backend"));
  req.workload.seed = seed;
  req.workload.num_queries = cli.get_uint("queries");
  req.workload.source_pool = cli.get_uint("source-pool");
  if (cli.get_bool("closed-loop")) {
    req.workload.process = serve::ArrivalProcess::kClosedLoop;
    req.workload.num_clients = cli.get_uint("clients");
    req.workload.mean_think_time =
        util::checked_ps_from_us(cli.get_double("think-us"), "--think-us");
  } else {
    req.workload.offered_qps = cli.get_double("qps");
  }
  const std::uint32_t span_shards = cli.get_uint("span-shards");
  if (cli.get("mix").empty()) {
    throw std::invalid_argument(
        "serve: --mix must name at least one algorithm");
  }
  const util::SimTime slo =
      util::checked_ps_from_us(cli.get_double("slo-us"), "--slo-us");
  bool first_class = true;
  for (const std::string& name : util::split_csv(cli.get("mix"))) {
    serve::QueryClass cls;
    cls.algorithm = core::algorithm_from_name(name);
    cls.slo = slo;
    if (first_class && span_shards >= 2) {
      cls.shards = span_shards;
      cls.strategy = partition::Strategy::kDegreeBalanced;
    }
    first_class = false;
    req.workload.mix.push_back(cls);
  }
  serve::FleetConfig& fleet = req.fleet;
  fleet.serve.policy = serve::policy_from_name(cli.get("policy"));
  fleet.serve.max_waiting = cli.get_uint("queue-cap");
  fleet.serve.quantum_supersteps = cli.get_uint("quantum", 1);
  fleet.replicas = cli.get_uint("replicas", 1);
  fleet.router = serve::router_from_name(cli.get("router"));
  fleet.migrations = serve::parse_migrations(cli.get("migrate"));
  fleet.quotas = serve::parse_quotas(cli.get("quota"));
  fleet.slo_shedding = cli.get_bool("slo-shed");
  if (const std::uint32_t elastic_max = cli.get_uint("elastic-max");
      elastic_max > 0) {
    fleet.elastic.enabled = true;
    fleet.elastic.max_replicas = elastic_max;
    fleet.elastic.check_interval_sec =
        cli.get_double("elastic-interval-us") * 1e-6;
  }
  if (!cli.get("faults").empty()) {
    fleet.faults = fault::parse_fault_spec(cli.get("faults"));
  }

  const serve::FleetReport fr = server.serve(g, req);
  const serve::ServeReport& s = fr.serve;
  if (!s.conservation_ok()) {
    std::cerr << "error: serve byte-conservation check failed: link "
              << s.link_bytes << " != queries " << s.query_bytes
              << " + lost " << s.lost_bytes << "\n";
    return 1;
  }
  util::TablePrinter table({"Metric", "Value"});
  table.add_row({"backend", s.backend + " (" + s.access_method + ")"});
  table.add_row({"fleet", std::to_string(fr.replicas) + " replicas (" +
                              fr.router + " router), peak " +
                              std::to_string(fr.peak_replicas)});
  table.add_row({"policy", s.policy + " / " + s.process});
  table.add_row({"queries",
                 util::fmt_count(s.offered) + " offered, " +
                     util::fmt_count(s.completed) + " completed, " +
                     util::fmt_count(s.shed) + " shed"});
  table.add_row({"shed (queue/quota/slo)",
                 std::to_string(fr.shed_queue) + " / " +
                     std::to_string(fr.shed_quota) + " / " +
                     std::to_string(fr.shed_deadline)});
  table.add_row({"makespan", util::fmt(s.makespan_sec * 1e3, 3) + " ms"});
  table.add_row({"completed throughput",
                 util::fmt(s.completed_qps, 1) + " qps"});
  table.add_row({"goodput (within SLO)",
                 util::fmt(s.goodput_qps, 1) + " qps"});
  table.add_row({"SLO violation rate", util::fmt(s.slo_violation_rate, 3)});
  table.add_row({"latency p50 / p95 / p99",
                 util::fmt(s.latency_us.p50 / 1e3, 3) + " / " +
                     util::fmt(s.latency_us.p95 / 1e3, 3) + " / " +
                     util::fmt(s.latency_us.p99 / 1e3, 3) + " ms"});
  table.add_row({"streaming p99 (P2)",
                 util::fmt(s.streaming_p99_us / 1e3, 3) + " ms"});
  table.add_row({"P2 max rel error", util::fmt(s.p2_max_rel_error, 4)});
  table.add_row({"time in queue / in service",
                 util::fmt(s.time_in_queue_sec * 1e3, 3) + " / " +
                     util::fmt(s.time_in_service_sec * 1e3, 3) + " ms"});
  table.add_row({"utilization", util::fmt(s.utilization, 3)});
  table.add_row({"shared-link bytes", util::format_bytes(s.link_bytes)});
  table.add_row({"distinct profiles", util::fmt_count(s.profiles.size())});
  if (!fr.migrations.empty()) {
    table.add_row({"migrations",
                   util::fmt_count(fr.migrations.size()) + " (" +
                       util::format_bytes(fr.migration_bytes) +
                       " state copied, " +
                       util::fmt(fr.migration_sec * 1e6, 1) + " us)"});
  }
  if (fleet.faults.enabled()) {
    table.add_row({"queries failed", util::fmt_count(s.failed)});
    table.add_row({"availability", util::fmt(fr.availability, 4)});
    table.add_row({"crashes / restarts / replacements",
                   std::to_string(fr.crashes) + " / " +
                       std::to_string(fr.restarts) + " / " +
                       std::to_string(fr.replacements)});
    table.add_row({"query retries", util::fmt_count(s.query_retries)});
    table.add_row({"lost work",
                   util::fmt(s.lost_work_sec * 1e3, 3) + " ms, " +
                       util::format_bytes(s.lost_bytes)});
    table.add_row({"io retries / link windows",
                   std::to_string(fr.io_error_retries) + " / " +
                       std::to_string(fr.link_degrade_windows)});
  }
  if (!fr.incidents.empty()) {
    std::uint32_t open = 0;
    for (const obs::Incident& inc : fr.incidents) {
      if (inc.open) ++open;
    }
    table.add_row({"health incidents",
                   util::fmt_count(fr.incidents.size()) + " (" +
                       std::to_string(open) + " still open)"});
  }
  table.print(std::cout);
  for (const serve::ReplicaStats& rs : fr.replica_stats) {
    std::cout << "  replica " << rs.replica << ": "
              << util::fmt_count(rs.served) << " served, util "
              << util::fmt(rs.utilization, 3)
              << (rs.retired ? " (retired)" : "") << "\n";
  }
  for (const serve::ScalingEvent& ev : fr.scaling_events) {
    std::cout << "  " << (ev.added ? "scale-up" : "scale-down") << " t="
              << util::fmt(ev.at_sec * 1e3, 3) << " ms: p99 "
              << util::fmt(ev.p99_before_us / 1e3, 3) << " -> "
              << util::fmt(ev.p99_after_us / 1e3, 3) << " ms";
    if (ev.incident >= 0) std::cout << " (incident #" << ev.incident << ")";
    std::cout << "\n";
  }
  if (!cli.get("incidents-out").empty()) {
    if (!serve::save_incident_log(cli.get("incidents-out"), fr)) {
      std::cerr << "error: cannot write " << cli.get("incidents-out") << "\n";
      return 1;
    }
    std::cout << "incident log written to " << cli.get("incidents-out")
              << "\n";
  }
  return save_telemetry(cli, telemetry.get());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Shift argv so subcommand parsers see their own options.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "convert") return cmd_convert(sub_argc, sub_argv);
    if (command == "info") return cmd_info(sub_argc, sub_argv);
    if (command == "reorder") return cmd_reorder(sub_argc, sub_argv);
    if (command == "run") return cmd_run(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
