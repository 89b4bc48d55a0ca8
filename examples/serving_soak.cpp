/// \file serving_soak.cpp
/// Multi-tenant serving soak: what happens when a stream of mixed
/// analytics queries — BFS point lookups, connected components, full
/// PageRank-style scans — shares ONE simulated GPU + CXL stack.
///
///  1. generate a graph and define the query mix with per-class SLOs,
///  2. push the open-loop offered load from well below saturation to 4x
///     past it under each scheduling policy,
///  3. watch the latency tail unfold: p99 explodes at saturation, FIFO
///     lets scans convoy short BFS queries, round-robin/SLO-priority
///     interleave supersteps to protect them, and an admission cap
///     trades shed queries for a bounded tail,
///  4. finish with a closed-loop run, where clients self-throttle and
///     the same stack runs near (but never past) saturation.
///
///   ./example_serving_soak [--scale=12] [--seed=42] [--jobs=0]

#include <iostream>
#include <stdexcept>

#include "graph/datasets.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace cxlgraph;

  util::CliParser cli;
  cli.add_option("scale", "log2 of the vertex count", "12");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("jobs", "worker threads for query profiling", "0");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = static_cast<unsigned>(cli.get_int("scale"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::int64_t jobs = cli.get_int("jobs");
  if (jobs < 0) throw std::invalid_argument("--jobs must be >= 0");

  std::cout << "Generating a uniform-random graph (2^" << scale
            << " vertices)...\n";
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::kUrand, scale,
                          /*weighted=*/true, seed);
  std::cout << "  " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges\n\n";

  serve::QueryServer server(core::table3_system(),
                            static_cast<unsigned>(jobs));

  // The traffic: mostly short BFS lookups with a tight SLO, a fifth
  // connected-components, and an occasional full scan with a loose SLO.
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = seed;
  req.workload.num_queries = 96;
  req.workload.source_pool = 8;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 4.0;
  bfs.slo = util::ps_from_us(10'000.0);
  serve::QueryClass cc;
  cc.algorithm = core::Algorithm::kCc;
  cc.weight = 1.0;
  cc.slo = util::ps_from_us(40'000.0);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = util::ps_from_us(40'000.0);
  req.workload.mix = {bfs, cc, scan};

  // Capacity probe: one query at a time, idle server.
  serve::ServeRequest probe = req;
  probe.workload.offered_qps = 0.001;
  probe.workload.num_queries = 16;
  const serve::ServeReport idle = server.serve(g, probe);
  const double capacity_qps = 1.0e6 / idle.service_us.mean;
  std::cout << "Mean isolated query service: "
            << util::fmt(idle.service_us.mean / 1e3, 3)
            << " ms -> capacity ~" << util::fmt(capacity_qps, 0)
            << " qps\n\n";

  std::cout << "--- Open-loop soak: offered load x policy ---\n";
  util::TablePrinter table({"Policy", "Load", "p50 [ms]", "p99 [ms]",
                            "Goodput [qps]", "SLO viol", "Shed",
                            "Util"});
  for (const serve::SchedulingPolicy policy : serve::all_policies()) {
    for (const double factor : {0.5, 1.0, 4.0}) {
      serve::ServeRequest run = req;
      run.config.policy = policy;
      run.workload.offered_qps = capacity_qps * factor;
      const serve::ServeReport r = server.serve(g, run);
      table.add_row({r.policy, util::fmt(factor, 1) + "x",
                     util::fmt(r.latency_us.p50 / 1e3, 2),
                     util::fmt(r.latency_us.p99 / 1e3, 2),
                     util::fmt(r.goodput_qps, 1),
                     util::fmt(r.slo_violation_rate, 2),
                     util::fmt_count(r.shed),
                     util::fmt(r.utilization, 2)});
    }
  }
  table.print(std::cout);

  std::cout << "\n--- Admission control at 4x load (SLO priority) ---\n";
  util::TablePrinter admission({"Queue cap", "Completed", "Shed",
                                "p99 [ms]", "Goodput [qps]"});
  for (const std::uint32_t cap : {0u, 16u, 4u}) {
    serve::ServeRequest run = req;
    run.config.policy = serve::SchedulingPolicy::kSloPriority;
    run.config.max_waiting = cap;
    run.workload.offered_qps = capacity_qps * 4.0;
    const serve::ServeReport r = server.serve(g, run);
    admission.add_row({cap == 0 ? "unbounded" : std::to_string(cap),
                       util::fmt_count(r.completed),
                       util::fmt_count(r.shed),
                       util::fmt(r.latency_us.p99 / 1e3, 2),
                       util::fmt(r.goodput_qps, 1)});
  }
  admission.print(std::cout);

  std::cout << "\n--- Thermal soak: sustained 0.8x load, throttling on "
               "---\n";
  {
    // Budget calibrated from a cold run of the same sustained load: heat
    // arrives at the cold link-byte rate, cooling absorbs half of it, and
    // the throttle trips after ~5% of the run's total traffic.
    serve::ServeRequest sustained = req;
    sustained.config.policy = serve::SchedulingPolicy::kFifo;
    sustained.workload.offered_qps = capacity_qps * 0.8;
    const serve::ServeReport cold = server.serve(g, sustained);

    // The same request with the stack's thermal model on, on the same
    // server: the hot serve reuses the cold serve's profiles.
    device::ThermalParams& thermal = sustained.config.thermal;
    thermal.enabled = true;
    const double heat_mb = static_cast<double>(cold.link_bytes) / 1.0e6;
    thermal.heat_per_mb = 1.0;
    thermal.cool_per_sec = 0.5 * heat_mb / cold.makespan_sec;
    thermal.throttle_threshold = heat_mb * 0.05;
    thermal.hysteresis = 0.9;
    thermal.throttle_factor = 0.5;
    const serve::ServeReport hot = server.serve(g, sustained);

    util::TablePrinter soak({"Window", "Completed", "Cold p99 [ms]",
                             "Hot p99 [ms]"});
    const auto cold_windows = serve::soak_windows(cold, 6);
    const auto hot_windows = serve::soak_windows(hot, 6);
    for (std::size_t w = 0; w < hot_windows.size(); ++w) {
      soak.add_row({std::to_string(w),
                    util::fmt_count(hot_windows[w].completed),
                    util::fmt(w < cold_windows.size()
                                  ? cold_windows[w].p99_us / 1e3
                                  : 0.0,
                              3),
                    util::fmt(hot_windows[w].p99_us / 1e3, 3)});
    }
    soak.print(std::cout);
    std::cout << "throttled quanta: " << hot.throttled_quanta
              << ", peak heat " << util::fmt(hot.stack_peak_heat, 1)
              << " vs budget " << util::fmt(thermal.throttle_threshold, 1)
              << " -> the tail drifts up as the stack heats; the cold "
                 "stack's stays flat\n";
  }

  std::cout << "\n--- Closed loop: 8 clients, 1 ms think time ---\n";
  serve::ServeRequest closed = req;
  closed.workload.process = serve::ArrivalProcess::kClosedLoop;
  closed.workload.num_clients = 8;
  closed.workload.mean_think_time = util::ps_from_us(1'000.0);
  closed.config.policy = serve::SchedulingPolicy::kRoundRobin;
  const serve::ServeReport r = server.serve(g, closed);
  std::cout << "completed " << r.completed << "/" << r.offered
            << " at util " << util::fmt(r.utilization, 2) << ", p99 "
            << util::fmt(r.latency_us.p99 / 1e3, 2)
            << " ms (clients self-throttle: no shedding needed)\n";

  if (!r.conservation_ok()) {
    std::cerr << "byte conservation FAILED\n";
    return 1;
  }
  return 0;
}
