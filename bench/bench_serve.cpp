/// Serving extension: offered-load, fleet and fault sweeps over the one
/// serving engine.
///
/// Every serve here is one FleetRequest through QueryServer::serve (a
/// single stack is a one-replica fleet behind the random router), and
/// every cell shares one server, so each distinct idle-stack profile is
/// computed once per run rather than once per cell. Offered load is a
/// factor of the measured one-stack capacity (1 / mean isolated service
/// time of the mix) times the fleet size, so a factor means the same
/// per-replica pressure in every grid.
///
/// The workload mixes BFS, connected components, a PageRank-style scan
/// and, with --span-shards, a shard-spanning BFS class routed through
/// ClusterRuntime. The sweep is three grids of one row loop:
///
///  1. policy x load on one replica: the saturation curve of one shared
///     stack under FIFO, round-robin and SLO-priority scheduling;
///  2. replicas x router x load: fleet scaling under the named --policy
///     (slo-priority, the last, when --policy is all);
///  3. fault level x router x load on the largest --replicas fleet:
///     availability, retries and lost work under seeded fault plans.
///
/// Each row reports throughput, goodput, the exact latency tail, the
/// queue / SLO / shed split, utilization and the fault ledger. Three
/// sections follow: a live tenant migration, the elastic controller under
/// an 8x burst, and the recovery timeline of one crash-heavy run.
///
/// Every serve is held to the invariants any serve keeps (serve_checked).
/// --smoke runs a reduced sweep and adds the gates that need a known
/// configuration: FIFO p95 non-decreasing as load rises, the one-replica
/// fleet record-identical to the ServeRequest serve, the migration moving
/// state, the elastic controller scaling up, the crash plan crashing, a
/// zero-rate fault plan record-identical to no plan, and the faulted run
/// identical at --jobs 1 and --jobs 4. Any failed check exits 1.
///
/// --soak replaces the sweep with a sustained-load soak: one long FIFO
/// serve at a fixed load factor with the serving stack's thermal model
/// on (ServeConfig::thermal, budget derived from a cold calibration run
/// on the same server), reporting p99 over equal makespan windows. It
/// fails (exit 1) unless the hot run throttles and its last window's p99
/// ends strictly above its first's.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "obs/telemetry.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace cxlgraph;

serve::WorkloadSpec make_workload(std::uint64_t seed, std::uint32_t queries,
                                  double slo_us, std::uint32_t span_shards) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_queries = queries;
  spec.source_pool = 8;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 3.0;
  bfs.slo = util::checked_ps_from_us(slo_us, "--slo-us");
  serve::QueryClass cc;
  cc.algorithm = core::Algorithm::kCc;
  cc.weight = 1.0;
  cc.slo = util::checked_ps_from_us(4.0 * slo_us, "--slo-us");
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = cc.slo;
  spec.mix = {bfs, cc, scan};
  if (span_shards >= 2) {
    serve::QueryClass sharded_bfs = bfs;
    sharded_bfs.weight = 1.0;
    sharded_bfs.shards = span_shards;
    sharded_bfs.strategy = partition::Strategy::kDegreeBalanced;
    spec.mix.push_back(sharded_bfs);
  }
  return spec;
}

/// The one-stack capacity in qps: 1 / mean isolated service time of the
/// mix, from a FIFO probe serve on one replica at negligible load, where
/// every query runs alone.
double probe_capacity_qps(serve::QueryServer& server,
                          const graph::CsrGraph& g,
                          serve::FleetRequest req) {
  req.workload.offered_qps = 0.001;
  req.workload.num_queries =
      std::min<std::uint32_t>(req.workload.num_queries, 24);
  req.fleet.replicas = 1;
  req.fleet.router = serve::RouterKind::kRandom;
  req.fleet.serve.policy = serve::SchedulingPolicy::kFifo;
  req.fleet.serve.max_waiting = 0;
  const serve::FleetReport probe = server.serve(g, req);
  if (probe.serve.service_us.mean <= 0.0) {
    throw std::runtime_error("probe serve produced no service time");
  }
  return 1.0e6 / probe.serve.service_us.mean;
}

/// Counts failed checks, naming each on stderr.
struct Gate {
  int failures = 0;
  void operator()(bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "bench_serve check FAILED: " << what << "\n";
      ++failures;
    }
  }
};

/// Serves one request and holds its report to the invariants every serve
/// keeps, whatever its configuration: the extended byte ledger (link ==
/// query + lost), the shed decomposition, terminal dispositions that
/// partition the offered stream, exact percentiles in order, and no
/// replica busy for longer than it was alive.
serve::FleetReport serve_checked(serve::QueryServer& server,
                                 const graph::CsrGraph& g,
                                 const serve::FleetRequest& req,
                                 const std::string& where, Gate& gate) {
  serve::FleetReport r = server.serve(g, req);
  const serve::ServeReport& s = r.serve;
  gate(s.conservation_ok(),
       "byte conservation (link " + std::to_string(s.link_bytes) +
           " != query " + std::to_string(s.query_bytes) + " + lost " +
           std::to_string(s.lost_bytes) + "): " + where);
  gate(r.shed_queue + r.shed_quota + r.shed_deadline == s.shed,
       "shed decomposition: " + where);
  gate(s.completed + s.shed + s.failed == s.offered,
       "disposition partition: " + where);
  gate(s.latency_us.p50 <= s.latency_us.p95 &&
           s.latency_us.p95 <= s.latency_us.p99,
       "percentile order: " + where);
  for (const serve::ReplicaStats& rs : r.replica_stats) {
    gate(rs.utilization <= 1.0, "replica " + std::to_string(rs.replica) +
                                    " utilization " +
                                    util::fmt(rs.utilization, 3) +
                                    " above 1: " + where);
  }
  return r;
}

/// A named fault intensity for the fault grid.
struct FaultLevel {
  const char* name;
  std::uint32_t crashes;  ///< crash count per horizon
  double io_rate;         ///< per-draw error probability inside bursts
  bool link_flap;
};

constexpr FaultLevel kFaultLevels[] = {
    {"none", 0, 0.0, false},
    {"io-light", 0, 0.1, false},
    {"io-heavy+flap", 0, 0.5, true},
    {"crashy", 2, 0.3, true},
};
constexpr const FaultLevel& kNoFaults = kFaultLevels[0];
constexpr const FaultLevel& kIoLight = kFaultLevels[1];
constexpr const FaultLevel& kCrashy = kFaultLevels[3];

/// The level's fault plan. Its horizon is the request's arrival window
/// (queries / offered qps), so every level hits the same fraction of the
/// stream regardless of load.
fault::FaultSpec make_plan(const FaultLevel& level,
                           const serve::FleetRequest& req) {
  fault::FaultSpec spec;
  if (level.crashes == 0 && level.io_rate <= 0 && !level.link_flap) {
    return spec;  // disabled — the plain fleet path
  }
  const double horizon_sec = static_cast<double>(req.workload.num_queries) /
                             req.workload.offered_qps;
  spec.seed = 0xfa017u;
  spec.horizon_sec = horizon_sec;
  spec.crashes = level.crashes;
  spec.restart_sec = horizon_sec / 8.0;
  spec.io_bursts = level.io_rate > 0 ? 2 : 0;
  spec.io_burst_sec = horizon_sec / 6.0;
  spec.io_error_rate = level.io_rate;
  spec.io_retry_us = 40.0;
  spec.link_flaps = level.link_flap ? 1 : 0;
  spec.flap_sec = horizon_sec / 8.0;
  spec.flap_derate = 0.5;
  spec.max_query_retries = 3;
  spec.retry_backoff_us = 80.0;
  return spec;
}

/// One row of the sweep: the grid it belongs to and its coordinates.
struct Cell {
  std::string sweep;
  serve::SchedulingPolicy policy;
  std::uint32_t replicas;
  serve::RouterKind router;
  const FaultLevel* faults;
  double load;
};

/// Sustained-load soak with the serving stack's thermal model on
/// (ServeConfig::thermal), on whichever backend serves. The thermal
/// budget is calibrated from a cold (model-off) run of the same workload
/// so the soak throttles at any graph scale: the heat rate is the cold
/// run's link-byte rate, cooling absorbs half of it, and the budget is a
/// small fraction of the total heat the run deposits. The hot serve is
/// the same request with the model on, on the same server, so it reuses
/// the cold serve's profiles.
void run_soak(serve::QueryServer& server, const graph::CsrGraph& g,
              serve::FleetRequest req, double capacity_qps,
              double load_factor, std::size_t windows, bool csv,
              obs::Telemetry* telemetry, Gate& gate) {
  req.fleet.serve.policy = serve::SchedulingPolicy::kFifo;
  req.workload.offered_qps = capacity_qps * load_factor;
  const serve::ServeReport cold =
      serve_checked(server, g, req, "soak cold", gate).serve;
  if (cold.completed == 0 || cold.makespan_sec <= 0.0) {
    throw std::runtime_error("soak: cold run completed no queries");
  }

  device::ThermalParams& thermal = req.fleet.serve.thermal;
  thermal.enabled = true;
  const double total_heat_mb =
      static_cast<double>(cold.link_bytes) / 1.0e6;
  thermal.heat_per_mb = 1.0;
  thermal.cool_per_sec = 0.5 * total_heat_mb / cold.makespan_sec;
  thermal.throttle_threshold = std::max(total_heat_mb * 0.05, 1e-6);
  thermal.hysteresis = 0.9;
  thermal.throttle_factor = 0.5;

  // Only the hot run is traced: its throttle episodes and latency drift
  // are what the soak timeline is for.
  server.set_telemetry(telemetry);
  const serve::ServeReport hot =
      serve_checked(server, g, req, "soak hot", gate).serve;
  server.set_telemetry(nullptr);

  const std::vector<serve::SoakWindow> cold_windows =
      serve::soak_windows(cold, windows);
  const std::vector<serve::SoakWindow> hot_windows =
      serve::soak_windows(hot, windows);

  if (!csv) {
    std::cout << "=== Serving soak: sustained load x"
              << util::fmt(load_factor, 2) << " with thermal throttling "
                 "===\n"
              << "capacity: " << util::fmt(capacity_qps, 1)
              << " qps, throttled quanta: " << hot.throttled_quanta
              << ", peak heat: " << util::fmt(hot.stack_peak_heat, 1)
              << " (budget " << util::fmt(thermal.throttle_threshold, 1)
              << ")\n\n";
  }
  util::TablePrinter table({"Window", "Start [s]", "End [s]", "Completed",
                            "Cold p99 [ms]", "Hot p99 [ms]"});
  for (std::size_t w = 0; w < hot_windows.size(); ++w) {
    table.add_row({std::to_string(w),
                   util::fmt(hot_windows[w].start_sec, 4),
                   util::fmt(hot_windows[w].end_sec, 4),
                   std::to_string(hot_windows[w].completed),
                   util::fmt(w < cold_windows.size()
                                 ? cold_windows[w].p99_us / 1e3
                                 : 0.0,
                             3),
                   util::fmt(hot_windows[w].p99_us / 1e3, 3)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }

  gate(hot.throttled_quanta > 0, "soak: thermal model never throttled");
  // The acceptance property: sustained-load p99 strictly above the
  // cold-start p99 of the same (hot) run.
  const serve::SoakWindow& first = hot_windows.front();
  const serve::SoakWindow& last = hot_windows.back();
  gate(last.p99_us > first.p99_us,
       "soak: sustained p99 (" + util::fmt(last.p99_us, 1) +
           " us) not above cold-start p99 (" + util::fmt(first.p99_us, 1) +
           " us)");
}

/// "all", or one name.
template <typename T>
std::vector<T> parse_names(const std::string& value,
                           const std::vector<T>& all,
                           T (*from_name)(const std::string&)) {
  return value == "all" ? all : std::vector<T>{from_name(value)};
}

/// A comma-separated list of finite positive numbers, each read whole.
std::vector<double> parse_positive(const std::string& option,
                                   const std::string& value) {
  std::vector<double> parsed;
  for (const std::string& item : util::split_csv(value)) {
    const double v = util::parse_double(item, "--" + option);
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::invalid_argument("--" + option + ": bad value '" + item +
                                  "'");
    }
    parsed.push_back(v);
  }
  return parsed;
}

int run_serve(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 of dataset vertex count", "12");
  cli.add_option("seed", "workload + graph seed", "7");
  cli.add_option("backend",
                 "host-dram | host-dram-remote | cxl (every replica's "
                 "stack)",
                 "cxl");
  cli.add_option("queries", "queries per serve", "96");
  cli.add_option("slo-us",
                 "BFS-class SLO [us]; heavier classes get 4x", "2000");
  cli.add_option("policy",
                 "fifo | round-robin | slo-priority | all: the policy "
                 "sweep's policies; the fleet and fault sweeps run the "
                 "named one (all: slo-priority)",
                 "all");
  cli.add_option("quantum", "supersteps per preemptive turn", "4");
  cli.add_option("queue-cap",
                 "per-replica max waiting queries (0 = unbounded)", "0");
  cli.add_option("loads",
                 "comma-separated offered-load factors (x one-stack "
                 "capacity per replica)",
                 "0.5,1,2,4");
  cli.add_option("span-shards",
                 "add a query class spanning this many shards (0 = off)",
                 "0");
  cli.add_option("replicas",
                 "comma-separated fleet sizes; the fault sweep and crash "
                 "recovery run the largest",
                 "1,2,4");
  cli.add_option("router",
                 "random | join-shortest-queue | class-affinity | all",
                 "all");
  cli.add_option("jobs",
                 "worker threads for profiling "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("smoke",
               "reduced sweep + every serve invariant and smoke gate; "
               "exit 1 on failure");
  cli.add_flag("soak",
               "sustained-load soak with thermal throttling; windowed p99 "
               "over time, exit 1 if sustained p99 <= cold-start p99");
  cli.add_option("soak-load", "soak offered load (x capacity)", "0.8");
  cli.add_option("soak-windows", "makespan windows in the soak report",
                 "6");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  cli.add_option("trace-out",
                 "write a Chrome trace-event JSON timeline of the sweep's "
                 "last serve (soak: the hot run) here",
                 "");
  cli.add_option("metrics-out", "write a metrics snapshot JSON here", "");
  if (!cli.parse(argc, argv)) return 0;

  std::unique_ptr<obs::Telemetry> telemetry;
  if (!cli.get("trace-out").empty() || !cli.get("metrics-out").empty()) {
    telemetry =
        std::make_unique<obs::Telemetry>(obs::Telemetry::enabled_config());
  }
  const auto save_telemetry = [&cli, &telemetry]() {
    if (telemetry == nullptr) return 0;
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
    return 0;
  };

  const bool smoke = cli.get_bool("smoke");
  const bool soak = cli.get_bool("soak");
  const bool csv = cli.get_bool("csv");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned scale =
      smoke ? 10u : cli.get_uint("scale", 0, graph::kMaxScale);
  const std::uint32_t queries = smoke ? 48u : cli.get_uint("queries", 1);
  const unsigned jobs = cli.get_uint("jobs");
  if (cli.get_bool("verbose")) util::set_log_level(util::LogLevel::kInfo);

  // --smoke fixes the grids: one load below and one above capacity,
  // every policy and router, and a one- and a three-replica fleet.
  std::vector<double> loads = {0.5, 2.0};
  std::vector<serve::SchedulingPolicy> policies = serve::all_policies();
  std::vector<serve::RouterKind> routers = serve::all_routers();
  std::vector<std::uint32_t> fleet_sizes = {1, 3};
  if (!smoke) {
    loads = parse_positive("loads", cli.get("loads"));
    policies = parse_names(cli.get("policy"), serve::all_policies(),
                           serve::policy_from_name);
    routers = parse_names(cli.get("router"), serve::all_routers(),
                          serve::router_from_name);
    fleet_sizes.clear();
    for (const double n : parse_positive("replicas", cli.get("replicas"))) {
      if (n != std::floor(n) ||
          n > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument("--replicas: bad fleet size " +
                                    util::fmt(n, 1));
      }
      fleet_sizes.push_back(static_cast<std::uint32_t>(n));
    }
  }
  const std::uint32_t fault_replicas =
      *std::max_element(fleet_sizes.begin(), fleet_sizes.end());

  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")), scale,
      /*weighted=*/true, seed);

  serve::FleetRequest base;
  base.base.backend = core::backend_from_name(cli.get("backend"));
  base.workload = make_workload(seed, queries, cli.get_double("slo-us"),
                                cli.get_uint("span-shards"));
  // The fleet and fault grids run the named policy; all_policies() ends
  // with slo-priority, so --policy=all runs them under SLO priority.
  base.fleet.serve.policy = policies.back();
  base.fleet.serve.quantum_supersteps = cli.get_uint("quantum", 1);
  base.fleet.serve.max_waiting = cli.get_uint("queue-cap");

  // One server for every cell, section and gate on the Table-3 stack.
  serve::QueryServer server(core::table3_system(), jobs);
  const double capacity_qps = probe_capacity_qps(server, g, base);
  Gate gate;
  const auto finish = [&gate, &save_telemetry](const char* mode) {
    if (gate.failures > 0) {
      std::cerr << "bench_serve: " << gate.failures << " check(s) failed\n";
      return 1;
    }
    if (mode != nullptr) std::cerr << "bench_serve " << mode << " OK\n";
    return save_telemetry();
  };

  if (soak) {
    const double soak_load = cli.get_double("soak-load");
    if (!(soak_load > 0.0) || !std::isfinite(soak_load)) {
      throw std::invalid_argument("--soak-load must be a finite value > 0");
    }
    run_soak(server, g, base, capacity_qps, soak_load,
             cli.get_uint("soak-windows", 1), csv, telemetry.get(), gate);
    return finish("soak");
  }

  if (!csv) {
    std::cout << "=== Serving: policy, fleet and fault sweeps over the "
                 "modeled stack ===\n"
              << "dataset: " << cli.get("dataset") << ", scale: 2^"
              << scale << ", seed: " << seed << ", queries: " << queries
              << ", backend: " << core::to_string(base.base.backend)
              << "\none-stack capacity (1 / mean isolated service): "
              << util::fmt(capacity_qps, 1) << " qps\n\n";
  }

  std::vector<Cell> cells;
  for (const serve::SchedulingPolicy policy : policies) {
    for (const double load : loads) {
      cells.push_back({"policy", policy, 1, serve::RouterKind::kRandom,
                       &kNoFaults, load});
    }
  }
  for (const std::uint32_t replicas : fleet_sizes) {
    for (const serve::RouterKind router : routers) {
      for (const double load : loads) {
        cells.push_back({"fleet", base.fleet.serve.policy, replicas, router,
                         &kNoFaults, load});
      }
    }
  }
  for (const FaultLevel& level : kFaultLevels) {
    for (const serve::RouterKind router : routers) {
      for (const double load : loads) {
        cells.push_back({"faults", base.fleet.serve.policy, fault_replicas,
                         router, &level, load});
      }
    }
  }

  util::TablePrinter table(
      {"sweep", "policy", "replicas", "router", "faults", "load_x",
       "offered_qps", "done_qps", "goodput", "p50_ms", "p95_ms", "p99_ms",
       "queue_p95_ms", "slo_viol", "shed", "shed_q/quota/slo", "util",
       "avail", "failed", "retries", "lost_ms", "crash/rst/repl"});
  double previous_fifo_p95 = -1.0;
  for (const Cell& cell : cells) {
    serve::FleetRequest req = base;
    req.fleet.serve.policy = cell.policy;
    req.fleet.replicas = cell.replicas;
    req.fleet.router = cell.router;
    req.workload.offered_qps = capacity_qps * cell.load * cell.replicas;
    req.fleet.faults = make_plan(*cell.faults, req);
    const std::string where = cell.sweep + " " + to_string(cell.policy) +
                              " x" + std::to_string(cell.replicas) + " " +
                              to_string(cell.router) + " " +
                              cell.faults->name + " load " +
                              util::fmt(cell.load, 2);
    // Only the sweep's final row is traced: one serve = one timeline.
    server.set_telemetry(&cell == &cells.back() ? telemetry.get()
                                                : nullptr);
    const serve::FleetReport r = serve_checked(server, g, req, where, gate);
    const serve::ServeReport& s = r.serve;
    CXLG_INFO("bench_serve: " << where << ": p95="
                              << util::fmt(s.latency_us.p95 / 1e3, 2)
                              << " ms, util=" << util::fmt(s.utilization, 2));
    // Monotonicity only holds for ascending loads with an unbounded
    // queue; --loads is user-ordered, so this check is smoke-only.
    if (smoke && cell.sweep == "policy" &&
        cell.policy == serve::SchedulingPolicy::kFifo &&
        base.fleet.serve.max_waiting == 0) {
      gate(s.latency_us.p95 >= previous_fifo_p95,
           "FIFO p95 improved as load rose: " + where);
      previous_fifo_p95 = s.latency_us.p95;
    }
    table.add_row(
        {cell.sweep, to_string(cell.policy), std::to_string(cell.replicas),
         to_string(cell.router), cell.faults->name, util::fmt(cell.load, 2),
         util::fmt(req.workload.offered_qps, 1),
         util::fmt(s.completed_qps, 1), util::fmt(s.goodput_qps, 1),
         util::fmt(s.latency_us.p50 / 1e3, 3),
         util::fmt(s.latency_us.p95 / 1e3, 3),
         util::fmt(s.latency_us.p99 / 1e3, 3),
         util::fmt(s.queue_us.p95 / 1e3, 3),
         util::fmt(s.slo_violation_rate, 3),
         util::fmt(s.offered == 0 ? 0.0
                                  : static_cast<double>(s.shed) /
                                        static_cast<double>(s.offered),
                   3),
         std::to_string(r.shed_queue) + "/" + std::to_string(r.shed_quota) +
             "/" + std::to_string(r.shed_deadline),
         util::fmt(s.utilization, 3), util::fmt(r.availability, 4),
         std::to_string(s.failed), std::to_string(s.query_retries),
         util::fmt(s.lost_work_sec * 1e3, 3),
         std::to_string(r.crashes) + "/" + std::to_string(r.restarts) + "/" +
             std::to_string(r.replacements)});
  }
  server.set_telemetry(nullptr);
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // -------------------------------------------------------------------
  // Live migration: tenant 0 moves between replicas mid-run.
  // -------------------------------------------------------------------
  {
    serve::FleetRequest req = base;
    req.fleet.replicas = 2;
    req.fleet.router = serve::RouterKind::kClassAffinity;
    req.fleet.serve.policy = serve::SchedulingPolicy::kRoundRobin;
    req.fleet.serve.quantum_supersteps = 1;
    req.workload.offered_qps = capacity_qps * 2.0;
    const serve::FleetReport before =
        serve_checked(server, g, req, "migration baseline", gate);
    const double at_sec = before.serve.makespan_sec / 3.0;
    req.fleet.migrations = {serve::MigrationPlan{
        at_sec, /*class_index=*/0, /*from=*/0, /*to=*/1}};
    const serve::FleetReport r =
        serve_checked(server, g, req, "migration", gate);
    std::cout << "\n=== live migration (tenant 0: replica 0 -> 1 at "
              << util::fmt(at_sec * 1e3, 2) << " ms) ===\n";
    for (const serve::MigrationRecord& m : r.migrations) {
      std::cout << "  moved " << m.moved_waiting << " waiting"
                << (m.moved_active ? " + 1 in-flight (mid-serve)" : "")
                << ", state " << util::format_bytes(m.state_bytes)
                << ", copy " << util::fmt(m.copy_sec * 1e6, 1) << " us\n";
    }
    std::cout << "  p99 " << util::fmt(before.serve.latency_us.p99 / 1e3, 3)
              << " -> " << util::fmt(r.serve.latency_us.p99 / 1e3, 3)
              << " ms, conservation "
              << (r.serve.conservation_ok() ? "ok" : "VIOLATED") << "\n";
    gate(!r.migrations.empty() && r.migrations[0].state_bytes > 0,
         "migration moved no state");
    gate(r.serve.completed + r.serve.shed == r.serve.offered,
         "migration lost queries");
  }

  // -------------------------------------------------------------------
  // Elastic controller: grow from 1 under a saturating burst.
  // -------------------------------------------------------------------
  {
    serve::FleetRequest req = base;
    req.fleet.replicas = 1;
    req.fleet.router = serve::RouterKind::kJoinShortestQueue;
    req.workload.offered_qps = capacity_qps * 8.0;
    const serve::FleetReport fixed =
        serve_checked(server, g, req, "elastic baseline", gate);
    req.fleet.elastic.enabled = true;
    req.fleet.elastic.min_replicas = 1;
    req.fleet.elastic.max_replicas = 4;
    req.fleet.elastic.check_interval_sec = fixed.serve.makespan_sec / 40.0;
    req.fleet.elastic.scale_up_depth = 4.0;
    req.fleet.elastic.scale_down_depth = 0.5;
    req.fleet.elastic.cooldown_intervals = 1;
    const serve::FleetReport r =
        serve_checked(server, g, req, "elastic", gate);
    std::cout << "\n=== elastic controller (1 -> up to 4 replicas, "
              << "8x load burst) ===\n"
              << "  peak replicas " << r.peak_replicas << ", makespan "
              << util::fmt(fixed.serve.makespan_sec * 1e3, 2) << " -> "
              << util::fmt(r.serve.makespan_sec * 1e3, 2) << " ms, p99 "
              << util::fmt(fixed.serve.latency_us.p99 / 1e3, 3) << " -> "
              << util::fmt(r.serve.latency_us.p99 / 1e3, 3) << " ms\n";
    bool grew = false;
    for (const serve::ScalingEvent& ev : r.scaling_events) {
      grew = grew || ev.added;
      std::cout << "  " << (ev.added ? "scale-up  " : "scale-down")
                << " t=" << util::fmt(ev.at_sec * 1e3, 3) << " ms replica "
                << ev.replica << " (depth/replica "
                << util::fmt(ev.depth_per_replica, 1) << ", routable "
                << ev.routable_after << "): p99 transient "
                << util::fmt(ev.p99_before_us / 1e3, 3) << " -> "
                << util::fmt(ev.p99_after_us / 1e3, 3) << " ms ("
                << ev.completions_before << "/" << ev.completions_after
                << " completions)\n";
    }
    gate(r.serve.completed == r.serve.offered, "elastic lost queries");
    if (smoke) {
      gate(r.peak_replicas > 1,
           "elastic controller never scaled under 8x burst");
      gate(grew, "no scale-up event recorded");
    }
  }

  // -------------------------------------------------------------------
  // Recovery timeline: one crash-heavy run in detail, on the fault
  // sweep's fleet.
  // -------------------------------------------------------------------
  serve::FleetRequest faulted = base;
  faulted.fleet.replicas = fault_replicas;
  faulted.fleet.router = serve::RouterKind::kJoinShortestQueue;
  faulted.workload.offered_qps = capacity_qps * 2.0 * fault_replicas;
  {
    serve::FleetRequest req = faulted;
    req.fleet.faults = make_plan(kCrashy, req);
    const serve::FleetReport r =
        serve_checked(server, g, req, "crash recovery", gate);
    std::cout << "\n=== crash recovery (" << r.crashes << " crashes, "
              << r.restarts << " restarts, " << r.replacements
              << " replacements) ===\n";
    for (const serve::ReplicaStats& rs : r.replica_stats) {
      if (rs.crashes == 0 && rs.down_sec == 0.0) continue;
      std::cout << "  replica " << rs.replica << ": " << rs.crashes
                << " crash(es), down "
                << util::fmt(rs.down_sec * 1e3, 3) << " ms, util "
                << util::fmt(rs.utilization, 3) << "\n";
    }
    std::uint32_t down_incidents = 0;
    for (const obs::Incident& inc : r.incidents) {
      if (inc.kind == obs::IncidentKind::kReplicaDown) ++down_incidents;
    }
    std::cout << "  " << down_incidents << " replica-down incident(s), "
              << r.serve.query_retries << " query retries, "
              << r.serve.failed << " failed, availability "
              << util::fmt(r.availability, 4) << "\n";
    if (smoke) {
      gate(r.crashes > 0, "crash plan produced no crashes");
      gate(down_incidents > 0, "no replica-down incident recorded");
    }
  }

  if (smoke) {
    // The one-replica fleet is the ServeRequest serve by construction;
    // this keeps the adapter honest record by record.
    serve::FleetRequest one = base;
    one.fleet.replicas = 1;
    one.fleet.router = serve::RouterKind::kRandom;
    one.workload.offered_qps = capacity_qps;
    const serve::ServeReport solo = server.serve(
        g, serve::ServeRequest{one.base, one.workload, one.fleet.serve});
    const serve::FleetReport fleet_of_one =
        serve_checked(server, g, one, "one replica", gate);
    gate(solo == fleet_of_one.serve,
         "replicas=1 fleet is not record-identical to the ServeRequest "
         "serve");

    // A plan whose events never bite (io bursts at rate 0) must leave
    // every serve record and aggregate identical to the plain fleet path.
    // Only .serve compares: the armed bursts still open their
    // io-error-burst incidents, rate 0 or not.
    serve::FleetRequest zero = faulted;
    zero.fleet.faults = make_plan(kIoLight, zero);
    zero.fleet.faults.io_error_rate = 0.0;
    const serve::FleetReport plain =
        serve_checked(server, g, faulted, "no plan", gate);
    const serve::FleetReport zeroed =
        serve_checked(server, g, zero, "zero-rate plan", gate);
    gate(plain.serve == zeroed.serve,
         "zero-rate fault plan is not record-identical to no plan");

    // The faulted schedule is a pure function of the request: profiling
    // thread count must not leak into it. Each side needs its own server.
    faulted.fleet.faults = make_plan(kCrashy, faulted);
    serve::QueryServer serial(core::table3_system(), 1);
    serve::QueryServer parallel(core::table3_system(), 4);
    const serve::FleetReport r1 =
        serve_checked(serial, g, faulted, "crashy --jobs 1", gate);
    const serve::FleetReport r4 =
        serve_checked(parallel, g, faulted, "crashy --jobs 4", gate);
    gate(r1 == r4, "faulted run differs across profiling thread counts");
  }

  return finish(smoke ? "smoke" : nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_serve(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
