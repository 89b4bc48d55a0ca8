/// bench_simcore — self-timing perf-regression harness for the
/// discrete-event simulation core.
///
/// Unlike the figure benches (which report *simulated* time), this binary
/// measures the simulator's own wall-clock throughput: it replays canonical
/// BFS / PageRank-scan / delta-stepping / write-back traces and a serving
/// mix through freshly built GPU+interconnect+device stacks, and reports
/// processed events per second of wall time for each. `--json PATH`
/// writes the deterministic columns (events, work items, checksum) as a
/// record like the committed BENCH_simcore.json; the wall-clock columns
/// stay on stdout, and without `--json` nothing is written.
///
/// Every row's simulated result is folded into a checksum by the folds of
/// tests/golden_suite.hpp, and replays must checksum identically across
/// repetitions. The golden table of that header (the smoke configuration)
/// is checked on every run: any drift in simulated behaviour exits 1.
/// --print-golden prints the table as computed.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/sssp_delta.hpp"
#include "algo/trace.hpp"
#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "golden_suite.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace cxlgraph;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Replays run through ExternalGraphRuntime::run_trace, the stack every
// figure bench replays on; TraceRunResult carries the event count.
// ---------------------------------------------------------------------------
struct ReplayMetrics {
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

ReplayMetrics replay(const core::ExternalGraphRuntime& runtime,
                     core::BackendKind backend,
                     const algo::AccessTrace& trace,
                     std::uint64_t edge_list_bytes) {
  core::RunRequest req;
  req.backend = backend;
  const core::TraceRunResult r =
      runtime.run_trace(trace, req, edge_list_bytes);
  return ReplayMetrics{r.events, golden::checksum(r)};
}

/// Raw event-queue churn: a dependent chain interleaved with same-timestamp
/// bursts, the two access patterns the traversal replay is made of. One
/// listener, two opcodes: each chain link schedules `burst_width` bursts
/// one picosecond out and the next link two picoseconds out.
ReplayMetrics queue_churn(std::uint64_t chain_events,
                          std::uint64_t burst_width) {
  enum Op : std::uint16_t { kChain, kBurst };
  struct Churn {
    Churn(std::uint64_t chain, std::uint64_t width)
        : listener(sim.add_listener(this, &Churn::on_event)),
          chain_events(chain),
          burst_width(width) {}
    Churn(const Churn&) = delete;
    Churn& operator=(const Churn&) = delete;

    sim::Simulator sim;
    std::uint16_t listener;
    std::uint64_t chain_events;
    std::uint64_t burst_width;
    std::uint64_t fired = 0;

    static void on_event(void* self, std::uint16_t opcode, std::uint32_t,
                         std::uint32_t) {
      auto* c = static_cast<Churn*>(self);
      ++c->fired;
      if (opcode == kBurst || c->fired >= c->chain_events) return;
      for (std::uint64_t i = 0; i < c->burst_width; ++i) {
        c->sim.schedule_after(1, c->listener, kBurst);
      }
      c->sim.schedule_after(2, c->listener, kChain);
    }
  };
  Churn churn(chain_events, burst_width);
  churn.sim.schedule_at(0, churn.listener, kChain);
  churn.sim.run();
  return ReplayMetrics{churn.sim.events_processed(),
                       golden::Fnv().mix(churn.fired, churn.sim.now()).value()};
}

// ---------------------------------------------------------------------------
// Result collection + JSON emission.
// ---------------------------------------------------------------------------
struct BenchRow {
  std::string name;
  std::uint64_t events = 0;   // simulator events (0 where not applicable)
  double wall_sec = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t work_items = 0;  // trace reads / queries / ops, for context
};

/// Writes the rows to `path`; false when the file cannot be written.
bool emit_json(const std::vector<BenchRow>& rows, unsigned scale,
               std::uint64_t seed, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  os << "{\n  \"bench\": \"simcore\",\n  \"scale\": " << scale
     << ",\n  \"seed\": " << seed << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %" PRIu64
                  ", \"work_items\": %" PRIu64 ", \"checksum\": \"%016" PRIx64
                  "\"}%s\n",
                  r.name.c_str(), r.events, r.work_items, r.checksum,
                  i + 1 == rows.size() ? "" : ",");
    os << buf;
  }
  os << "  ]\n}\n";
  return static_cast<bool>(os.flush());
}

int run_simcore(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("scale", "log2 of dataset vertex count", "14");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("reps", "replay repetitions per microbench", "3");
  cli.add_option("json",
                 "write the record (events, work items, checksums) here; "
                 "none without it",
                 "");
  cli.add_flag("smoke",
               "small scale + bit-identity self-check vs pinned goldens; "
               "exit 1 on mismatch");
  cli.add_flag("print-golden",
               "print the golden table for the smoke configuration");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const bool print_golden = cli.get_bool("print-golden");
  const unsigned scale =
      smoke || print_golden ? golden::kSmokeScale
                            : cli.get_uint("scale", 0, graph::kMaxScale);
  const std::uint64_t seed =
      smoke || print_golden ? golden::kSmokeSeed
                            : static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned reps = cli.get_uint("reps", 1);

  // -------------------------------------------------------------------
  // Golden table (always at the smoke configuration so goldens apply).
  // -------------------------------------------------------------------
  const graph::CsrGraph smoke_graph = golden::smoke_graph();
  const std::vector<std::uint64_t> sums =
      golden::compute_checksums(smoke_graph);
  if (print_golden) {
    for (std::size_t i = 0; i < sums.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "    {\"%s\", 0x%016" PRIx64 "ULL},",
                    golden::kGoldens[i].name, sums[i]);
      std::cout << buf << "\n";
    }
    return 0;
  }
  bool identity_ok = true;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    if (sums[i] != golden::kGoldens[i].checksum) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "IDENTITY MISMATCH %s: got %016" PRIx64
                    " want %016" PRIx64,
                    golden::kGoldens[i].name, sums[i],
                    golden::kGoldens[i].checksum);
      std::cerr << buf << "\n";
      identity_ok = false;
    }
  }

  // -------------------------------------------------------------------
  // Throughput microbenches.
  // -------------------------------------------------------------------
  const core::SystemConfig cfg = core::table3_system();
  const graph::CsrGraph g =
      scale == golden::kSmokeScale && seed == golden::kSmokeSeed
          ? smoke_graph
          : golden::make_graph(scale, seed);
  const graph::VertexId source = algo::pick_source(g, 1);

  const algo::AccessTrace bfs_trace =
      algo::build_trace(g, algo::bfs(g, source).frontiers);
  const algo::AccessTrace scan_trace = algo::build_sequential_trace(g, 1);
  const algo::AccessTrace delta_trace =
      algo::build_trace(g, algo::sssp_delta_stepping(g, source).phases);
  const algo::AccessTrace writeback_trace =
      algo::build_writeback_trace(g, algo::bfs(g, source).frontiers);

  std::vector<BenchRow> rows;
  const auto run_replay =
      [&rows, reps](const std::string& name, std::uint64_t work_items,
                    const std::function<ReplayMetrics()>& once) {
        BenchRow row;
        row.name = name;
        row.work_items = work_items;
        const auto start = Clock::now();
        for (unsigned r = 0; r < reps; ++r) {
          const ReplayMetrics m = once();
          if (r == 0) {
            row.events = m.events;
            row.checksum = m.checksum;
          } else if (m.checksum != row.checksum) {
            std::cerr << "IDENTITY MISMATCH: " << name
                      << " differs across repetitions\n";
            std::exit(1);
          }
        }
        row.wall_sec = seconds_since(start) / reps;
        rows.push_back(row);
      };

  const core::ExternalGraphRuntime runtime(cfg);
  const std::uint64_t elb = g.edge_list_bytes();
  using core::BackendKind;
  run_replay("bfs_replay_dram", bfs_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kHostDram, bfs_trace, elb);
  });
  run_replay("bfs_replay_cxl", bfs_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kCxl, bfs_trace, elb);
  });
  run_replay("pagerank_replay_dram", scan_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kHostDram, scan_trace, elb);
  });
  run_replay("delta_replay_cxl", delta_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kCxl, delta_trace, elb);
  });
  run_replay("writeback_replay_xlfdd",
             writeback_trace.total_reads + writeback_trace.total_writes, [&] {
               return replay(runtime, BackendKind::kXlfdd, writeback_trace,
                             elb);
             });
  run_replay("queue_churn", 400'000,
             [&] { return queue_churn(200'000, 1); });

  {
    BenchRow row;
    row.name = "trace_build_bfs";
    row.work_items = bfs_trace.total_reads;
    row.events = bfs_trace.total_reads;
    row.checksum = golden::Fnv()
                       .mix(bfs_trace.total_reads,
                            bfs_trace.total_sublist_bytes)
                       .value();
    const auto start = Clock::now();
    for (unsigned r = 0; r < reps; ++r) {
      const algo::AccessTrace t =
          algo::build_trace(g, algo::bfs(g, source).frontiers);
      if (t.total_reads != bfs_trace.total_reads) std::exit(1);
    }
    row.wall_sec = seconds_since(start) / reps;
    rows.push_back(row);
  }

  {
    core::ClusterRuntime cluster(cfg, /*jobs=*/1);
    core::ClusterRequest creq;
    creq.run.algorithm = core::Algorithm::kBfs;
    creq.run.backend = core::BackendKind::kCxl;
    creq.num_shards = 4;
    creq.strategy = partition::Strategy::kDegreeBalanced;
    BenchRow row;
    row.name = "cluster_bfs_x4_cxl";
    const auto start = Clock::now();
    const core::ClusterReport cr = cluster.run(g, creq);
    row.wall_sec = seconds_since(start);
    row.checksum = golden::checksum(cr);
    row.work_items = cr.supersteps;
    rows.push_back(row);
  }

  {
    serve::QueryServer server(cfg, /*jobs=*/1);
    BenchRow row;
    row.name = "serve_mix_cxl";
    const auto start = Clock::now();
    const serve::ServeReport sr =
        server.serve(g, golden::smoke_serve_request());
    row.wall_sec = seconds_since(start);
    row.checksum = golden::checksum(sr);
    row.work_items = sr.completed;
    rows.push_back(row);
  }

  {
    serve::QueryServer fleet(cfg, /*jobs=*/1);
    BenchRow row;
    row.name = "fleet_serve_cxl";
    const auto start = Clock::now();
    const serve::FleetReport fr =
        fleet.serve(g, golden::smoke_fleet_request());
    row.wall_sec = seconds_since(start);
    row.checksum = golden::checksum(fr);
    row.work_items = fr.serve.completed;
    if (!fr.serve.conservation_ok()) {
      std::cerr << "IDENTITY MISMATCH fleet_serve_cxl: byte conservation "
                   "violated\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  {
    serve::QueryServer fleet(cfg, /*jobs=*/1);
    BenchRow row;
    row.name = "fleet_faults_cxl";
    const auto start = Clock::now();
    const serve::FleetReport fr =
        fleet.serve(g, golden::smoke_fleet_faults_request());
    row.wall_sec = seconds_since(start);
    row.checksum = golden::checksum(fr);
    row.work_items = fr.serve.completed;
    if (!fr.serve.conservation_ok()) {
      std::cerr << "IDENTITY MISMATCH fleet_faults_cxl: extended byte "
                   "conservation violated\n";
      identity_ok = false;
    }
    if (fr.crashes == 0 || fr.serve.query_retries == 0) {
      std::cerr << "IDENTITY MISMATCH fleet_faults_cxl: fault plan drew no "
                   "crashes / recovery retried nothing\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  {
    // p99-over-time under thermal throttling (cold calibration + hot run).
    BenchRow row;
    row.name = "serve_soak_throttled_cxl";
    const auto start = Clock::now();
    const serve::ServeReport sr = golden::run_throttled_soak(g);
    row.wall_sec = seconds_since(start);
    row.checksum = golden::checksum(sr);
    row.work_items = sr.throttled_quanta;
    const std::vector<serve::SoakWindow> windows = serve::soak_windows(sr, 4);
    if (sr.throttled_quanta == 0 ||
        !(windows.back().p99_us > windows.front().p99_us)) {
      std::cerr << "IDENTITY MISMATCH serve_soak_throttled_cxl: sustained "
                   "p99 not above cold-start p99\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  // -------------------------------------------------------------------
  // Emit.
  // -------------------------------------------------------------------
  util::TablePrinter table(
      {"bench", "events", "wall_ms", "events/sec", "checksum"});
  for (const BenchRow& r : rows) {
    char sum[32];
    std::snprintf(sum, sizeof(sum), "%016" PRIx64, r.checksum);
    const double eps =
        r.wall_sec > 0.0 ? static_cast<double>(r.events) / r.wall_sec : 0.0;
    table.add_row({r.name, std::to_string(r.events),
                   std::to_string(r.wall_sec * 1e3), std::to_string(eps),
                   sum});
  }
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    std::cout << "=== simulation-core throughput (wall clock) ===\n";
    table.print(std::cout);
    std::cout << (identity_ok ? "identity: OK\n" : "identity: FAILED\n");
  }
  const bool written =
      cli.get("json").empty() || emit_json(rows, scale, seed, cli.get("json"));
  return identity_ok && written ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_simcore(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_simcore: " << e.what() << "\n";
    return 1;
  }
}
